"""Proper scores, calibration diagnostics and rolling verification.

CRPS (ensemble and numeric forms), MAE of the predictive median, Brier
score, energy score, verification-rank / PIT / minimum-spanning-tree rank
histograms with point-mass randomization, and reliability tables;
:func:`run_verification` refits, forecasts and scores each valid date.
"""

from __future__ import annotations

import csv
import functools
import os

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from . import data as dm
from . import estimation as est
from . import forecasting as fc
from . import transforms as tr
from .errors import DomainError, NumericalError


def crps_ensemble(members, obs):
    """CRPS of an ensemble forecast against a scalar observation.

    Mean absolute member error minus half the mean absolute member spread.
    Over the sorted members x_(1) <= ... <= x_(m), half the mean spread is
    sum_i (2i - m - 1) x_(i) / m^2 (Gneiting & Raftery 2007), so one sort
    replaces the m x m pair matrix: O(m log m) time, O(m) memory.
    """
    x = np.asarray(members, dtype=float)
    if x.size < 1:
        raise DomainError("empty ensemble")
    m = x.size
    term1 = np.abs(x - obs).mean()
    term2 = np.dot(np.arange(1 - m, m, 2), np.sort(x)) / (m * m)
    return float(term1 - term2)


def crps_numeric(cdf, obs, xi_max=None, tol=1e-8):
    """CRPS by adaptive quadrature of the squared CDF distance.

    ``cdf`` is a callable predictive CDF on [0, inf). The upper limit
    defaults to 10 units past the larger of the observation and the 0.999
    quantile (found by doubling search).
    """
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
    """Absolute error of the ensemble median (midpoint rule for even m)."""
    x = np.asarray(members, dtype=float)
    if x.size < 1:
        raise DomainError("empty ensemble")
    return float(abs(np.median(x) - obs))


def brier_score(prob, occurred):
    """Quadratic score of a probability forecast for a binary event."""
    if not (0.0 <= prob <= 1.0):
        raise DomainError("probability must lie in [0, 1]")
    return float((prob - float(bool(occurred))) ** 2)


def energy_score(members, obs):
    """Energy score of a vector ensemble against a vector observation."""
    x = np.asarray(members, dtype=float)
    obs = np.atleast_1d(np.asarray(obs, dtype=float))
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] != obs.size:
        raise DomainError("dimension mismatch between members and observation")
    term1 = np.linalg.norm(x - obs, axis=1).mean()
    diff = x[:, None, :] - x[None, :, :]
    term2 = 0.5 * np.linalg.norm(diff, axis=-1).mean()
    return float(term1 - term2)


def verification_rank(members, obs, rng):
    """Rank of the observation in the ensemble, in {1, ..., m + 1}.

    For a zero observation with m0 zero members the rank is drawn uniformly
    from {1, ..., m0 + 1}; nonzero ties are randomized uniformly.
    """
    x = np.asarray(members, dtype=float)
    m = x.size
    if m < 1:
        raise DomainError("empty ensemble")
    if obs == 0.0:
        m0 = int((x == 0.0).sum())
        if m0 == 0:
            return 1
        return int(rng.integers(1, m0 + 2))
    below = int((x < obs).sum())
    ties = int((x == obs).sum())
    return 1 + below + int(rng.integers(0, ties + 1))


def pit_value(p0, marginal, obs, rng):
    """Randomized probability integral transform of the mixed predictive CDF.

    A zero observation draws uniformly over the CDF's jump [0, p0]; a
    positive observation evaluates the mixture CDF.
    """
    if not (0.0 <= p0 <= 1.0):
        raise DomainError("p0 must lie in [0, 1]")
    if obs == 0.0:
        return float(rng.uniform(0.0, p0))
    return float(tr.mixed_cdf(p0, marginal, obs))


def _mst_length(dist):
    """Total edge weight of the minimum spanning tree (Prim's algorithm)."""
    n = dist.shape[0]
    if n < 2:
        return 0.0
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    best[0] = np.inf
    total = 0.0
    for _ in range(n - 1):
        j = int(np.argmin(np.where(in_tree, np.inf, best)))
        total += best[j]
        in_tree[j] = True
        best = np.minimum(best, dist[j])
    return float(total)


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
    pts = np.vstack([x, obs])
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)

    idx = np.arange(m)
    base = _mst_length(dist[np.ix_(idx, idx)])
    lengths = np.empty(m)
    for i in range(m):
        sub = np.concatenate([idx[:i], idx[i + 1:], [m]])
        lengths[i] = _mst_length(dist[np.ix_(sub, sub)])
    below = int((lengths < base).sum())
    ties = int((lengths == base).sum())
    return 1 + below + int(rng.integers(0, ties + 1))


def reliability_table(probs, outcomes, n_bins=10):
    """Observed frequency of occurrence per equal-width probability bin."""
    probs = np.asarray(probs, dtype=float)
    outcomes = np.asarray(outcomes, dtype=float)
    if probs.shape != outcomes.shape:
        raise DomainError("probs and outcomes must have equal length")
    if n_bins < 1:
        raise DomainError("need at least one bin")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    rows = []
    idx = np.clip(np.digitize(probs, edges[1:-1]), 0, n_bins - 1)
    for b in range(n_bins):
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


class VerificationReport:
    """Accumulates case-level scores and writes the report CSV set."""

    def __init__(self):
        self.cases = []  # dicts: method, date, kind, mae, crps, bs
        self.rank_hists = {}  # method -> counts
        self.pit_hists = {}
        self.mst_hists = {}
        self.reliability = {}  # method -> rows
        self.energy = {}  # method -> list of ES values

    def add_case(self, method, date, **scores):
        self.cases.append({"method": method, "date": str(date), **scores})

    def summary(self):
        methods = sorted({c["method"] for c in self.cases} | set(self.energy))
        rows = []
        for method in methods:
            cases = [c for c in self.cases if c["method"] == method]
            row = {"method": method, "n_cases": len(cases)}
            for key in ("mae", "crps", "bs"):
                vals = [c[key] for c in cases if key in c]
                row[key] = float(np.mean(vals)) if vals else float("nan")
            es_vals = self.energy.get(method, [])
            row["es"] = float(np.mean(es_vals)) if es_vals else float("nan")
            rows.append(row)
        return rows

    def write(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        self._write_csv(
            os.path.join(outdir, "scores.csv"),
            ["method", "date", "site_id", "mae", "crps", "bs"],
            self.cases,
        )
        self._write_csv(
            os.path.join(outdir, "summary.csv"),
            ["method", "n_cases", "mae", "crps", "bs", "es"],
            self.summary(),
        )
        for name, hists in (
            ("rank_hist.csv", self.rank_hists),
            ("pit_hist.csv", self.pit_hists),
            ("mst_hist.csv", self.mst_hists),
        ):
            rows = []
            for method in sorted(hists):
                for b, count in enumerate(hists[method], start=1):
                    rows.append({"method": method, "bin": b, "count": int(count)})
            self._write_csv(os.path.join(outdir, name), ["method", "bin", "count"], rows)
        rows = []
        for method in sorted(self.reliability):
            for entry in self.reliability[method]:
                rows.append({"method": method, **entry})
        self._write_csv(
            os.path.join(outdir, "reliability.csv"),
            ["method", "bin_center", "mean_forecast_prob", "observed_frequency", "count"],
            rows,
        )

    @staticmethod
    def _write_csv(path, header, rows):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n",
                                    extrasaction="ignore", restval="")
            writer.writeheader()
            for row in rows:
                out = {}
                for key in header:
                    val = row.get(key, "")
                    out[key] = repr(val) if isinstance(val, float) else val
                writer.writerow(out)


def _scoring_forecasts(model, sites, fcst, members, mst_members, seeds):
    """What :func:`run_verification` scores on one date: the spatial and
    independence ensembles of ``members`` and of ``mst_members`` members,
    each site's probability of precipitation, and its Gamma shape and scale."""
    mu, alpha, beta, _ = fc.two_stage_params(model, fcst)
    return (fc.generate_site_ensemble(model, sites, fcst, members, seeds[0]),
            fc.independence_baseline_ensemble(model, sites, fcst, members, seeds[1]),
            fc.generate_site_ensemble(model, sites, fcst, mst_members, seeds[2]),
            fc.independence_baseline_ensemble(model, sites, fcst, mst_members, seeds[3]),
            ndtr(mu), alpha, beta)


def run_verification(ds, valid_dates, window_days, members, mst_members, seed):
    """Rolling verification over ``valid_dates``: each date is refitted and
    forecast by :func:`estimation.date_step`, which may skip it, then scored
    for empirical climatology, the raw NWP point forecast, the
    no-spatial-correlation baseline and the two-stage spatial model.
    Returns the report and the number of dates skipped."""
    report = VerificationReport()
    rank_bins = {m: [] for m in ("climatology", "independence", "spatial")}
    pit_vals = {m: [] for m in ("climatology", "spatial")}
    mst_ranks = {"independence": [], "spatial": []}
    rel = {m: ([], []) for m in ("climatology", "nwp", "independence", "spatial")}
    n_skipped = 0

    for di, valid_date in enumerate(valid_dates):
        seeds = [np.random.SeedSequence(entropy=seed, spawn_key=(di, k)) for k in range(4)]
        step = est.date_step(ds, valid_date, window_days, functools.partial(
            _scoring_forecasts, members=members, mst_members=mst_members, seeds=seeds))
        if step is None:
            n_skipped += 1
            continue
        sites, fcst, obs, (ens_sp, ens_in, sp19, in19, p_wet, alpha, beta) = step

        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(1000 + di,)))
        clim = dm.split_by_date(ds, valid_date)[0].obs
        clim_p0 = float((clim == 0).mean())
        clim_cdf = empirical_cdf(clim)

        for j in range(len(sites)):
            o = float(obs[j])
            occurred = o > 0
            # Climatology.
            report.add_case("climatology", valid_date, site_id=sites[j].id,
                            mae=mae_of_median(clim, o),
                            crps=crps_ensemble(clim, o),
                            bs=brier_score(1.0 - clim_p0, occurred))
            if o == 0.0:
                pit_vals["climatology"].append(rng.uniform(0.0, clim_p0))
            else:
                pit_vals["climatology"].append(clim_cdf(o))
            rel["climatology"][0].append(1.0 - clim_p0)
            rel["climatology"][1].append(occurred)
            # Raw NWP point forecast: CRPS reduces to absolute error.
            f = float(fcst[j])
            report.add_case("nwp", valid_date, site_id=sites[j].id,
                            mae=abs(f - o), crps=abs(f - o),
                            bs=brier_score(float(f > 0), occurred))
            rel["nwp"][0].append(float(f > 0))
            rel["nwp"][1].append(occurred)
            # Statistical ensembles.
            p = float(p_wet[j])
            for name, ens in (("independence", ens_in), ("spatial", ens_sp)):
                mem = ens.members[:, j]
                report.add_case(name, valid_date, site_id=sites[j].id,
                                mae=mae_of_median(mem, o),
                                crps=crps_ensemble(mem, o),
                                bs=brier_score(p, occurred))
                rank_bins[name].append(verification_rank(mem, o, rng))
                rel[name][0].append(p)
                rel[name][1].append(occurred)
            # Climatology ranks scale to [0, 1] (the history is large).
            clim_rank = verification_rank(clim, o, rng)
            rank_bins["climatology"].append((clim_rank - 0.5) / (clim.size + 1))
            marginal = tr.GammaMarginal(float(alpha[j]), float(beta[j]))
            pit_vals["spatial"].append(pit_value(1.0 - p, marginal, o, rng))

        # Multivariate scores over the day's sites.
        for name, ens in (("independence", in19), ("spatial", sp19)):
            report.energy.setdefault(name, []).append(energy_score(ens.members, obs))
            mst_ranks[name].append(mst_rank(ens.members, obs, rng))
        report.energy.setdefault("nwp", []).append(float(np.linalg.norm(fcst - obs)))

    for name, ranks in rank_bins.items():
        if not ranks:
            continue
        if name == "climatology":
            report.pit_hists["climatology_rank"] = pit_histogram(np.asarray(ranks))
        else:
            report.rank_hists[name] = rank_histogram(ranks, members + 1)
    for name, vals in pit_vals.items():
        if vals:
            report.pit_hists[name] = pit_histogram(np.asarray(vals))
    for name, ranks in mst_ranks.items():
        if ranks:
            report.mst_hists[name] = rank_histogram(ranks, mst_members + 1)
    for name, (probs, outs) in rel.items():
        if probs:
            report.reliability[name] = reliability_table(
                np.asarray(probs), np.asarray(outs, dtype=float))
    return report, n_skipped
