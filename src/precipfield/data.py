"""Dataset schema, CSV ingestion, descriptive statistics, and the
synthetic-world generator used for validation.

The CSV schema is ``site_id,x_km,y_km,date,obs_hundredths,fcst_hundredths``
with ISO-8601 dates. Observations are quantized to whole hundredths of an
inch, with anything below one hundredth recorded as zero.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import fields as rf
from . import transforms as tr
from .errors import NoData, NotFound, ParseError, ValidationError

CSV_HEADER = ["site_id", "x_km", "y_km", "date", "obs_hundredths", "fcst_hundredths"]


@dataclass(frozen=True)
class DailyRecord:
    """One (site, date) observation/forecast pair."""

    site_id: str
    x: float
    y: float
    date: dt.date
    obs: float
    fcst: float

    def __post_init__(self):
        if self.obs < 0 or not np.isfinite(self.obs):
            raise ValidationError(f"{self.site_id} {self.date}: obs must be >= 0")
        if self.fcst < 0 or not np.isfinite(self.fcst):
            raise ValidationError(f"{self.site_id} {self.date}: fcst must be >= 0")


@dataclass
class Dataset:
    """Validated collection of daily records with a site registry."""

    records: list = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        sites = {}
        for rec in self.records:
            key = (rec.site_id, rec.date)
            if key in seen:
                raise ValidationError(f"duplicate record for {key}")
            seen.add(key)
            xy = (rec.x, rec.y)
            if sites.setdefault(rec.site_id, xy) != xy:
                raise ValidationError(f"site {rec.site_id} has inconsistent coordinates")
        self.sites = sites
        self.dates = sorted({r.date for r in self.records})
        self.records = sorted(self.records, key=lambda r: (r.date, r.site_id))

    def __len__(self):
        return len(self.records)

    def _date_span(self, date):
        """Index range [lo, hi) of the records on ``date``, by bisection of
        the date-sorted records."""
        lo = bisect.bisect_left(self.records, date, key=attrgetter("date"))
        return lo, bisect.bisect_right(self.records, date, lo, key=attrgetter("date"))

    def by_date(self, date):
        lo, hi = self._date_span(date)
        return self.records[lo:hi]


def load_dataset(path):
    """Load and validate a dataset CSV; row count is preserved."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected header") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise ParseError(f"{path}:1: bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise ParseError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields")
            try:
                rec = DailyRecord(
                    site_id=row[0],
                    x=float(row[1]),
                    y=float(row[2]),
                    date=dt.date.fromisoformat(row[3]),
                    obs=float(row[4]),
                    fcst=float(row[5]),
                )
            except ValidationError:
                raise
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            records.append(rec)
    return Dataset(records)


def save_dataset(ds, path):
    """Write a dataset in the canonical CSV schema (deterministic ordering)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in ds.records:
            writer.writerow(
                [rec.site_id, repr(rec.x), repr(rec.y), rec.date.isoformat(),
                 repr(rec.obs), repr(rec.fcst)]
            )


def day_arrays(ds, date):
    """The sites reporting on ``date`` with their aligned forecast and
    observation arrays; raises :class:`NotFound` when there are none."""
    recs = ds.by_date(date)
    if not recs:
        raise NotFound(f"no records on {date}")
    sites = [rf.Site(r.site_id, r.x, r.y) for r in recs]
    return sites, np.array([r.fcst for r in recs]), np.array([r.obs for r in recs])


def dataset_summary(ds):
    """Forecast-vs-observation diagnostics: over-forecast fraction, mean
    error (fcst - obs), nonzero-forecast fraction, nonzero-observation
    fraction."""
    if len(ds) == 0:
        raise NoData("dataset is empty")
    obs = np.array([r.obs for r in ds.records])
    fcst = np.array([r.fcst for r in ds.records])
    return {
        "n_pairs": len(ds),
        "over_forecast_fraction": float((fcst > obs).mean()),
        "mean_error": float((fcst - obs).mean()),
        "nonzero_forecast_fraction": float((fcst > 0).mean()),
        "nonzero_observation_fraction": float((obs > 0).mean()),
    }


def split_by_date(ds, valid_date):
    """Split into (strict history, records on valid_date); exhaustive for
    datasets whose dates do not extend past valid_date."""
    lo, hi = ds._date_span(valid_date)
    if lo == hi:
        raise NotFound(f"date {valid_date} not present in dataset")
    return Dataset(ds.records[:lo]), ds.records[lo:hi]


@dataclass
class SynthSpec:
    """Configuration of the synthetic world used for validation.

    True parameters follow the generative two-stage model, so estimation
    oracles apply directly. The forecast field is an exponentiated,
    thresholded unit Gaussian field: spatially coherent, right-skewed and
    zero-inflated, with defaults tuned for a ~60% nonzero-forecast fraction.
    """

    n_sites: int = 50
    extent_km: float = 300.0
    n_days: int = 60
    gamma: tuple = (0.0, 0.4, -0.4)
    rho_km: float = 35.0
    eta: tuple = (1.5, 0.8, 0.4)
    nu: tuple = (0.15, 0.05)
    r_km: float = 25.0
    fcst_range_km: float = 80.0
    fcst_wet_fraction: float = 0.6
    fcst_amp: float = 8.0
    wet_bias_offset: float = 0.0
    sites: list = None  # explicit Site list overrides n_sites/extent_km
    seed: int = 0
    clustered: bool = False


def _synth_sites(spec, rng):
    if spec.sites is not None:
        return list(spec.sites)
    if spec.clustered:
        # Half the sites in a tight cluster, half spread out.
        n_c = spec.n_sites // 2
        center = rng.uniform(0.25, 0.75, size=2) * spec.extent_km
        pts = np.vstack(
            [
                center + rng.normal(scale=0.05 * spec.extent_km, size=(n_c, 2)),
                rng.uniform(0, spec.extent_km, size=(spec.n_sites - n_c, 2)),
            ]
        )
    else:
        pts = rng.uniform(0, spec.extent_km, size=(spec.n_sites, 2))
    return [rf.Site(f"s{i:03d}", float(p[0]), float(p[1])) for i, p in enumerate(pts)]


def quantize(y0):
    """Round to whole hundredths; anything below one hundredth becomes 0."""
    y0 = np.asarray(y0, dtype=float)
    return np.where(y0 < 1.0, 0.0, np.rint(y0))


def synth_generate(spec):
    """Generate a synthetic dataset from known true parameters.

    Per day: draw a coherent nonnegative forecast field, then draw the
    latent occurrence and amount processes with the true parameters and
    build observations through the site-specific anamorphosis. Observations
    are quantized to whole hundredths. Deterministic given the seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    sites = _synth_sites(spec, rng)
    corr_f = rf.correlation_matrix(sites, rf.ExpCorrelation(spec.fcst_range_km))
    corr_w = rf.correlation_matrix(sites, rf.ExpCorrelation(spec.rho_km))
    corr_z = rf.correlation_matrix(sites, rf.ExpCorrelation(spec.r_km))
    chol_f = rf.cholesky_pd(corr_f)
    chol_w = rf.cholesky_pd(corr_w)
    chol_z = rf.cholesky_pd(corr_z)

    gamma = tr.OccurrenceTrendParams(*spec.gamma)
    coeffs = tr.GammaCoeffs(*spec.eta, *spec.nu)
    threshold = 1.0 - spec.fcst_wet_fraction

    n = len(sites)
    start = dt.date(2004, 1, 1)
    records = []
    from scipy.special import ndtr

    for day in range(spec.n_days):
        date = start + dt.timedelta(days=day)
        # Forecast field: thresholded probit of a coherent unit field.
        g = chol_f @ rng.standard_normal(n)
        fcst_cr = spec.fcst_amp * np.maximum(0.0, ndtr(g) - threshold)
        fcst = tr.cube(fcst_cr)
        zero_flag = fcst == 0.0

        w = tr.occurrence_trend(gamma, fcst_cr, zero_flag) + chol_w @ rng.standard_normal(n)
        z = chol_z @ rng.standard_normal(n)
        # Marginals at wet sites only, so their checks never fire on dry ones.
        wet = w > 0
        alpha, beta = np.ones(n), np.ones(n)
        alpha[wet], beta[wet], _ = tr.gamma_marginals(coeffs, fcst_cr[wet], zero_flag[wet])
        obs = quantize(tr.wet_amounts(w, z, alpha, beta))
        # Forecasts stay continuous (they come from a model grid, not gauges).
        fcst_out = fcst + spec.wet_bias_offset

        for j, s in enumerate(sites):
            records.append(
                DailyRecord(s.id, s.x, s.y, date, float(obs[j]), float(fcst_out[j]))
            )
    return Dataset(records)


def truth_parameters(spec):
    """True parameter dictionary matching the fitted-model key set."""
    return {
        "gamma0": spec.gamma[0],
        "gamma1": spec.gamma[1],
        "gamma2": spec.gamma[2],
        "rho_km": spec.rho_km,
        "eta0": spec.eta[0],
        "eta1": spec.eta[1],
        "eta2": spec.eta[2],
        "nu0": spec.nu[0],
        "nu1": spec.nu[1],
        "r_km": spec.r_km,
    }
