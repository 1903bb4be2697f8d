"""Columnar dataset, CSV ingestion and writing, gridded forecast reading,
and the synthetic-world generator used for validation.

The CSV schema is ``site_id,x_km,y_km,date,obs_hundredths,fcst_hundredths``
with ISO-8601 dates. Observations are quantized to whole hundredths of an
inch, with anything below one hundredth recorded as zero.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import io
from dataclasses import dataclass

import numpy as np

from . import fields as rf
from . import transforms as tr
from .errors import DomainError, NotFound, ParseError, ValidationError

CSV_HEADER = ["site_id", "x_km", "y_km", "date", "obs_hundredths", "fcst_hundredths"]


class Dataset:
    """Site-day pairs as numpy columns sorted by (date, site id).

    ``sites`` and ``dates`` are the sorted distinct site ids and dates, and
    the ``site`` and ``date`` columns index into them. The rows of
    ``dates[i]`` are ``offsets[i]:offsets[i + 1]``. ``xy`` holds each row's
    coordinates in km as an (n, 2) array; ``obs`` and ``fcst`` its
    observation and forecast. Columns are read-only.
    """

    def __init__(self, site_id, x, y, date, obs, fcst):
        """Validate and sort per-row columns: site ids, coordinates, dates,
        observations and forecasts.

        Raises :class:`ValidationError` naming the site and date of the first
        offending row for a negative or non-finite value, non-finite or
        inconsistent coordinates, and a duplicate (site, date).
        """
        site_id, date = list(site_id), list(date)
        self.sites, site = _factorize(site_id)
        self.dates, day = _factorize(date)
        xy = np.column_stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
        obs = np.asarray(obs, dtype=float)
        fcst = np.asarray(fcst, dtype=float)

        def reject(bad, message):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValidationError(message.format(site=site_id[i], date=date[i]))

        reject(~(np.isfinite(obs) & (obs >= 0)), "{site} {date}: obs must be >= 0")
        reject(~(np.isfinite(fcst) & (fcst >= 0)), "{site} {date}: fcst must be >= 0")
        reject(~np.isfinite(xy).all(axis=1), "site {site} on {date}: coordinates must be finite")
        first = np.unique(site, return_index=True)[1]
        reject((xy != xy[first[site]]).any(axis=1),
               "site {site} on {date}: coordinates differ from its first row")
        key = day * len(self.sites) + site  # orders rows by date, then site
        repeat = np.ones(len(key), dtype=bool)
        repeat[np.unique(key, return_index=True)[1]] = False
        reject(repeat, "duplicate record for site {site} on {date}")

        order = np.argsort(key)
        counts = np.bincount(day, minlength=len(self.dates))
        self._columns(np.concatenate([[0], np.cumsum(counts)]),
                      site[order], day[order], xy[order], obs[order], fcst[order])

    def _columns(self, offsets, site, date, xy, obs, fcst):
        for name, col in (("offsets", offsets), ("site", site), ("date", date),
                          ("xy", xy), ("obs", obs), ("fcst", fcst)):
            col.flags.writeable = False
            setattr(self, name, col)

    def __len__(self):
        return len(self.obs)

    def span(self, first, last):
        """The rows of ``dates[first:last]``, as a view that is not validated
        again; its ``site`` column indexes this dataset's ``sites``."""
        view = Dataset.__new__(Dataset)
        view.sites, view.dates = self.sites, self.dates[first:last]
        lo, hi = self.offsets[first], self.offsets[last]
        view._columns(self.offsets[first:last + 1] - lo, self.site[lo:hi],
                      self.date[lo:hi] - first, self.xy[lo:hi], self.obs[lo:hi],
                      self.fcst[lo:hi])
        return view


def _factorize(labels):
    """The sorted distinct labels, and each label's position among them."""
    distinct = sorted(set(labels))
    position = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(position.__getitem__, labels), np.intp, len(labels))


def csv_field(text):
    """``text`` quoted as ``csv.writer`` quotes a field inside a row. The
    writer's line terminator is "\r\n" so that a field holding a carriage
    return is quoted too and reads back whole; lines still end in "\n"."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
    return buf.getvalue()[:-3]


def write_csv(path, header, columns):
    """Write a header and equal-length columns of formatted fields as CSV
    lines, the rows joined in one pass."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n")


def load_dataset(path):
    """Load and validate a dataset CSV; row count is preserved."""
    site_id, date, values = [], [], []
    days = {}  # date string -> date, so each distinct string is parsed once
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
                values.append((float(row[1]), float(row[2]), float(row[4]), float(row[5])))
                day = days.get(row[3]) or days.setdefault(row[3], dt.date.fromisoformat(row[3]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            site_id.append(row[0])
            date.append(day)
    x, y, obs, fcst = np.reshape(values, (-1, 4)).T
    return Dataset(site_id, x, y, date, obs, fcst)


def load_grid_field(path, grid):
    """Gridded forecast CSV ``row,col,value_hundredths_inch`` with exactly
    one finite, nonnegative value per cell of ``grid``, as a (ny, nx) array."""
    field = np.full((grid.ny, grid.nx), np.nan)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["row", "col", "value_hundredths_inch"]:
            raise ParseError(f"{path}: expected header row,col,value_hundredths_inch")
        lineno = 1
        for lineno, row in enumerate(reader, start=2):
            try:
                iy, ix, value = int(row[0]), int(row[1]), float(row[2])
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if not (0 <= iy < grid.ny and 0 <= ix < grid.nx):
                raise ParseError(f"{path}:{lineno}: cell ({iy}, {ix}) outside the "
                                 f"{grid.ny}x{grid.nx} grid")
            if not (np.isfinite(value) and value >= 0):
                raise ParseError(f"{path}:{lineno}: value {value!r} is not a finite "
                                 "nonnegative accumulation")
            if not np.isnan(field[iy, ix]):
                raise ParseError(f"{path}:{lineno}: duplicate cell ({iy}, {ix})")
            field[iy, ix] = value
    missing = np.argwhere(np.isnan(field))
    if missing.size:
        iy, ix = missing[0]
        raise ParseError(f"{path}:{lineno + 1}: end of file with {len(missing)} "
                         f"cells missing, first ({iy}, {ix})")
    return field


def save_dataset(ds, path):
    """Write a dataset in the canonical CSV schema (deterministic ordering)."""
    ids = [csv_field(s) for s in ds.sites]
    days = [d.isoformat() for d in ds.dates]
    write_csv(path, CSV_HEADER, [
        map(ids.__getitem__, ds.site.tolist()),
        map(repr, ds.xy[:, 0].tolist()),
        map(repr, ds.xy[:, 1].tolist()),
        map(days.__getitem__, ds.date.tolist()),
        map(repr, ds.obs.tolist()),
        map(repr, ds.fcst.tolist()),
    ])


def day_arrays(ds, date):
    """The sites reporting on ``date`` with their aligned forecast and
    observation arrays; raises :class:`NotFound` when there are none."""
    _, day = split_by_date(ds, date)
    sites = [rf.Site(ds.sites[k], x, y) for k, (x, y) in zip(day.site.tolist(), day.xy.tolist())]
    return sites, day.fcst, day.obs


def split_by_date(ds, valid_date):
    """Split into (strict history, rows on valid_date), two views; exhaustive
    for datasets whose dates do not extend past valid_date."""
    i = bisect.bisect_left(ds.dates, valid_date)
    if i == len(ds.dates) or ds.dates[i] != valid_date:
        raise NotFound(f"date {valid_date} not present in dataset")
    return ds.span(0, i), ds.span(i, i + 1)


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


def _synth_sites(spec, rng):
    if spec.sites is not None:
        return list(spec.sites)
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
    if not (np.isfinite(spec.extent_km) and spec.extent_km > 0):
        raise DomainError(f"extent must be positive and finite, got {spec.extent_km!r} km")
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
    dates = [dt.date(2004, 1, 1) + dt.timedelta(days=day) for day in range(spec.n_days)]
    obs_days, fcst_days = [], []
    from scipy.special import ndtr

    for _ in dates:
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
        obs_days.append(quantize(tr.wet_amounts(w, z, alpha, beta)))
        # Forecasts stay continuous (they come from a model grid, not gauges).
        fcst_days.append(fcst + spec.wet_bias_offset)

    return Dataset([s.id for s in sites] * len(dates),
                   np.tile([s.x for s in sites], len(dates)),
                   np.tile([s.y for s in sites], len(dates)),
                   [date for date in dates for _ in sites],
                   np.ravel(obs_days), np.ravel(fcst_days))


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
