"""Columnar dataset, CSV ingestion and writing, gridded forecast reading,
and the synthetic-world generator used for validation.

The CSV schema is ``site_id,x_km,y_km,date,obs_hundredths,fcst_hundredths``
with ISO-8601 dates. Observations are quantized to whole hundredths of an
inch, with anything below one hundredth recorded as zero.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import datetime as dt
import functools
import io
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import fields as rf
from . import transforms as tr
from .errors import DomainError, NotFound, ParseError, ValidationError

CSV_HEADER = ["site_id", "x_km", "y_km", "date", "obs_hundredths", "fcst_hundredths"]


class Dataset:
    """Site-day pairs as numpy columns sorted by (date, site id).

    ``sites`` and ``dates`` are the sorted distinct site ids and dates, and
    the ``site`` and ``date`` columns index into them. The rows of
    ``dates[i]`` are ``offsets[i]:offsets[i + 1]``. ``xy`` holds each row's
    coordinates in km as an (n, 2) array, as stored, and ``site_xy`` each
    site's, from its first row; ``obs`` and ``fcst`` hold each row's
    observation and forecast. Columns are read-only.
    """

    def __init__(self, site_id, x, y, date, obs, fcst):
        """Validate and sort per-row columns: site ids, coordinates, dates,
        observations and forecasts.

        Raises :class:`ValidationError` naming the site and date of the first
        offending row for a negative or non-finite value, non-finite or
        inconsistent coordinates, and a duplicate (site, date). Rows already
        in (date, site) order, as every saved file is, are neither sorted
        nor copied: float arrays ``obs`` and ``fcst`` are then kept as
        read-only views, so a caller must not write to them afterwards.
        """
        self.sites, site, first = _factorize(site_id)
        self.dates, day, _ = _factorize(date)
        xy = np.column_stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
        obs = np.asarray(obs, dtype=float).view()
        fcst = np.asarray(fcst, dtype=float).view()

        def reject(bad, message):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValidationError(message.format(site=self.sites[site[i]],
                                                     date=self.dates[day[i]]))

        reject(~(np.isfinite(obs) & (obs >= 0)), "{site} {date}: obs must be >= 0")
        reject(~(np.isfinite(fcst) & (fcst >= 0)), "{site} {date}: fcst must be >= 0")
        reject(~np.isfinite(xy).all(axis=1), "site {site} on {date}: coordinates must be finite")
        site_xy = xy[first]
        # A coordinate at a time: one row-length gather, not an (n, 2) one.
        reject((xy[:, 0] != site_xy[site, 0]) | (xy[:, 1] != site_xy[site, 1]),
               "site {site} on {date}: coordinates differ from its first row")
        key = day * len(self.sites)  # orders rows by date, then site
        key += site
        if not (key[1:] > key[:-1]).all():  # a strictly increasing key repeats none
            # One stable sort gives the row order, and each key's repeats
            # after its first row in input order.
            order = np.argsort(key, kind="stable")
            key = key[order]
            repeat = np.zeros(len(key), dtype=bool)
            repeat[order[1:][key[1:] == key[:-1]]] = True
            reject(repeat, "duplicate record for site {site} on {date}")
            site = site[order]
            day = day[order]
            xy = xy[order]
            obs = obs[order]
            fcst = fcst[order]
        offsets = np.concatenate([[0], np.cumsum(np.bincount(day, minlength=len(self.dates)))])
        self._columns(offsets, site, day, xy, site_xy, obs, fcst)

    def _columns(self, offsets, site, date, xy, site_xy, obs, fcst):
        for name, col in (("offsets", offsets), ("site", site), ("date", date), ("xy", xy),
                          ("site_xy", site_xy), ("obs", obs), ("fcst", fcst)):
            col.flags.writeable = False
            setattr(self, name, col)

    def __len__(self):
        return len(self.obs)

    def span(self, first, last):
        """The rows of ``dates[first:last]``, as a view that is not validated
        again; its ``site`` column indexes this dataset's ``sites``. A span
        from the first date shares every row column, ``date`` too."""
        view = Dataset.__new__(Dataset)
        view.sites, view.dates = self.sites, self.dates[first:last]
        lo, hi = self.offsets[first], self.offsets[last]
        date = self.date[lo:hi] if first == 0 else self.date[lo:hi] - first
        view._columns(self.offsets[first:last + 1] - lo, self.site[lo:hi], date,
                      self.xy[lo:hi], self.site_xy, self.obs[lo:hi], self.fcst[lo:hi])
        return view


def _factorize(labels):
    """The sorted distinct labels, each label's position among them, and
    the index of each distinct label's first occurrence."""
    labels = labels if isinstance(labels, list) else list(labels)
    first = dict(zip(reversed(labels), range(len(labels) - 1, -1, -1)))
    distinct = sorted(first)
    position = dict(zip(distinct, range(len(distinct))))
    return (distinct, np.fromiter(map(position.__getitem__, labels), np.intp, len(labels)),
            np.fromiter(map(first.__getitem__, distinct), np.intp, len(distinct)))


def csv_field(text):
    """``text`` quoted as ``csv.writer`` quotes a field inside a row. The
    writer's line terminator is "\r\n" so that a field holding a carriage
    return is quoted too and reads back whole; lines still end in "\n"."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
    return buf.getvalue()[:-3]


def template_field(text):
    """``text`` quoted as :func:`csv_field` quotes it, with each ``%``
    doubled, as a constant field of a ``%``-template."""
    return csv_field(text).replace("%", "%%")


def write_csv(path, header, blocks):
    """Write the header line, then each block of CSV text, a run of whole
    lines, as it arrives: a writer that formats its rows a block at a time
    holds one block in memory. The lines go to a temporary sibling,
    ``path`` + ``.tmp``, which replaces ``path`` once the last block is
    written; an error on the way removes it, so ``path`` is never left
    partly written."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_table(path, header, rows):
    """Write a small table: ``rows`` are mappings from each header name to
    a field, written by ``str`` and unquoted. For a Python float ``str`` is
    its ``repr``, so a float reads back as the same float."""
    write_csv(path, header, [",".join([str(row[key]) for key in header]) + "\n" for row in rows])


def read_text(path):
    """The whole of a UTF-8 text file; bytes that are not UTF-8 raise
    :class:`ParseError` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None


def _not_utf8(path, exc):
    return ParseError(f"{path}: not UTF-8 text ({exc.reason})")


# Both CSV readers take a file's rows from csv.reader in blocks, convert or
# check a block's rows, and name the line of the first bad row.

_BLOCK_ROWS = 1 << 12  # rows gathered before a block is converted


def _csv_blocks(reader, path, width):
    """The header row of a CSV file read by ``reader`` (None when the file
    is empty), then its rows of ``width`` fields in blocks of up to
    ``_BLOCK_ROWS``. Blank rows are skipped.

    A block is ``(fields, line)``: the fields of its rows as one flat list
    and ``line(i)`` the physical line of its row i. A row without ``width``
    fields or malformed CSV, naming the line, or bytes that are not UTF-8,
    naming the file, raise :class:`ParseError` when the generator is
    resumed after the block of the rows before it, so that a reader meets
    an earlier bad row first. ``line_num`` is the physical line last read,
    so a line stays right after a quoted field that holds a newline.
    """
    try:
        header = next(reader, None)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise _read_error(path, reader, exc) from None
    yield header
    fields, lines, error = [], [], None
    try:
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                error = ParseError(f"{path}:{reader.line_num}: expected {width} fields")
                break
            fields += row
            lines.append(reader.line_num)
            if len(lines) == _BLOCK_ROWS:
                yield fields, lines.__getitem__
                fields, lines = [], []
    except (csv.Error, UnicodeDecodeError) as exc:
        error = _read_error(path, reader, exc)
    yield fields, lines.__getitem__
    if error:
        raise error


def _read_error(path, reader, exc):
    if isinstance(exc, UnicodeDecodeError):
        return _not_utf8(path, exc)
    return ParseError(f"{path}:{reader.line_num}: {exc}")


def _first_bad_row(path, fields, width, line, check):
    """The :class:`ParseError` naming the line of the first row of a block
    that ``check(*row)`` rejects with a ValueError, whose message it keeps;
    None when it rejects none."""
    for i, row in enumerate(zip(*(fields[k::width] for k in range(width)))):
        try:
            check(*row)
        except ValueError as exc:
            return ParseError(f"{path}:{line(i)}: {exc}")
    return None


def load_dataset(path):
    """Load and validate a dataset CSV; row count is preserved. A row
    without six fields, with a coordinate or value that is not a number or
    a date that is not ISO 8601 raises :class:`ParseError` naming the first
    such row's physical line."""
    site_id, date, columns = [], [], [[], [], [], []]  # x, y, obs and fcst, block by block
    ids, days = {}, {}  # one string per site id; date string -> date, each parsed once
    with open(path, newline="", encoding="utf-8") as fh:
        blocks = _csv_blocks(csv.reader(fh), path, len(CSV_HEADER))
        header = next(blocks)
        if header is None:
            raise ParseError(f"{path}: empty file, expected header")
        if [h.strip() for h in header] != CSV_HEADER:
            raise ParseError(f"{path}:1: bad header {header!r}")
        for fields, line in blocks:
            n = len(fields) // 6
            strings = fields[3::6]
            try:
                values = [*(_repeated_floats(fields[k::6], n) for k in (1, 2)),
                          *(np.fromiter(map(float, fields[k::6]), float, n) for k in (4, 5))]
                days.update((text, dt.date.fromisoformat(text))
                            for text in set(strings) - days.keys())
            except ValueError:
                # The row checks convert as the block does, so one fails.
                raise _first_bad_row(path, fields, 6, line, _check_dataset_row) from None
            for k in range(4):
                columns[k].append(values[k])
            site_id += map(ids.setdefault, fields[0::6], fields[0::6])
            date += map(days.__getitem__, strings)
            del fields, line, strings, values  # before the next block is read
    for k in range(4):  # each column's blocks go as it is joined
        columns[k] = np.concatenate([np.empty(0), *columns[k]])
    x, y, obs, fcst = columns
    return Dataset(site_id, x, y, date, obs, fcst)


def _repeated_floats(strings, n):
    """The ``n`` strings as floats, each distinct one converted once: a site
    has one pair of coordinates, repeated on each of its dates."""
    value = {text: float(text) for text in set(strings)}
    return np.fromiter(map(value.__getitem__, strings), float, n)


def _check_dataset_row(site, x, y, date, obs, fcst):
    """Convert one row's fields in the order a message must follow."""
    float(x), float(y), float(obs), float(fcst)
    dt.date.fromisoformat(date)


GRID_HEADER = ["row", "col", "value_hundredths_inch"]


def load_grid_field(path, grid):
    """Gridded forecast CSV ``row,col,value_hundredths_inch`` with exactly
    one finite, nonnegative value per cell of ``grid``, as a (ny, nx) array.
    Blank rows are skipped; any other row without exactly 3 fields, and the
    first bad row otherwise, raises :class:`ParseError` naming its line."""
    field = [None] * (grid.ny * grid.nx)
    check = functools.partial(_check_grid_row, grid, field)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        blocks = _csv_blocks(reader, path, len(GRID_HEADER))
        header = next(blocks)
        if header is None or [h.strip() for h in header] != GRID_HEADER:
            raise ParseError(f"{path}: expected header row,col,value_hundredths_inch")
        for fields, line in blocks:
            error = _first_bad_row(path, fields, 3, line, check)
            if error:
                raise error
        if None in field:
            iy, ix = divmod(field.index(None), grid.nx)
            raise ParseError(f"{path}:{reader.line_num + 1}: end of file with "
                             f"{field.count(None)} cells missing, first ({iy}, {ix})")
    return np.array(field).reshape(grid.ny, grid.nx)


def _check_grid_row(grid, field, iy, ix, value):
    """Check one row, in the order a message must follow, and set its cell
    of ``field``, a list of the grid's cells row by row, None until set."""
    iy, ix, value = int(iy), int(ix), float(value)
    if not (0 <= iy < grid.ny and 0 <= ix < grid.nx):
        raise ValueError(f"cell ({iy}, {ix}) outside the {grid.ny}x{grid.nx} grid")
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"value {value!r} is not a finite nonnegative accumulation")
    cell = iy * grid.nx + ix
    if field[cell] is not None:
        raise ValueError(f"duplicate cell ({iy}, {ix})")
    field[cell] = value


def save_dataset(ds, path):
    """Write a dataset in the canonical CSV schema (deterministic ordering),
    one date at a time."""
    ids = [template_field(s) for s in ds.sites]
    # Each site's id and coordinates are formatted once; a row whose
    # coordinate bits differ from its site's (a -0.0 next to a 0.0) gets its
    # own, so that every row is written as stored.
    heads = [f"{i},{x!r},{y!r}" for i, (x, y) in zip(ids, ds.site_xy.tolist())]
    site_bits = ds.site_xy.view(np.int64)

    def blocks():
        for d, day in enumerate(ds.dates):
            lo, hi = ds.offsets[d], ds.offsets[d + 1]
            site = ds.site[lo:hi]
            rows = [heads[s] for s in site.tolist()]
            for i in np.flatnonzero((ds.xy[lo:hi].view(np.int64) != site_bits[site]).any(axis=1)):
                x, y = ds.xy[lo + i].tolist()
                rows[i] = f"{ids[site[i]]},{x!r},{y!r}"
            tail = f",{day.isoformat()},%r,%r\n"
            values = np.column_stack([ds.obs[lo:hi], ds.fcst[lo:hi]])
            yield (tail.join(rows) + tail) % tuple(values.ravel().tolist())

    write_csv(path, CSV_HEADER, blocks())


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
    seed: int = 0


def _synth_sites(spec, rng):
    pts = rng.uniform(0, spec.extent_km, size=(spec.n_sites, 2))
    return [rf.Site(f"s{i:03d}", float(p[0]), float(p[1])) for i, p in enumerate(pts)]


def quantize(y0):
    """Round to whole hundredths; anything below one hundredth becomes 0."""
    y0 = np.asarray(y0, dtype=float)
    return np.where(y0 < 1.0, 0.0, np.rint(y0))


def synth_generate(spec):
    """Generate a synthetic dataset from known true parameters.

    Per day, in this order: draw a coherent forecast field, the latent
    occurrence noise and the amount field, each as one correlated normal
    draw. The threshold, trend, Gamma marginals and anamorphosis then run
    once over the (days, sites) block, building observations with the true
    parameters. Observations are quantized to whole hundredths.
    Deterministic given the seed.
    """
    if not (np.isfinite(spec.extent_km) and spec.extent_km > 0):
        raise DomainError(f"extent must be positive and finite, got {spec.extent_km!r} km")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    sites = _synth_sites(spec, rng)
    dates = [dt.date(2004, 1, 1) + dt.timedelta(days=day) for day in range(spec.n_days)]
    obs, fcst = _synth_values(spec, sites, len(dates), rng)
    return Dataset([s.id for s in sites] * len(dates),
                   np.tile([s.x for s in sites], len(dates)),
                   np.tile([s.y for s in sites], len(dates)),
                   [date for date in dates for _ in sites],
                   obs.ravel(), fcst.ravel())


def _synth_values(spec, sites, n_days, rng):
    """The (days, sites) observations and forecasts of
    :func:`synth_generate`; its temporaries are freed on return, before the
    dataset is built."""
    gamma = tr.OccurrenceTrendParams(*spec.gamma)
    coeffs = tr.GammaCoeffs(*spec.eta, *spec.nu)
    threshold = 1.0 - spec.fcst_wet_fraction
    g, w, z = _synth_fields(sites, (spec.fcst_range_km, spec.rho_km, spec.r_km), n_days, rng)

    # Forecast field: thresholded probit of a coherent unit field.
    fcst_cr = spec.fcst_amp * np.maximum(0.0, special.ndtr(g) - threshold)
    del g
    fcst = tr.cube(fcst_cr)
    zero_flag = fcst == 0.0
    w += tr.occurrence_trend(gamma, fcst_cr, zero_flag)
    # Marginals at wet site-days only, so their checks never fire on dry ones.
    wet = w > 0
    alpha, beta = np.ones_like(w), np.ones_like(w)
    alpha[wet], beta[wet], _ = tr.gamma_marginals(coeffs, fcst_cr[wet], zero_flag[wet])
    del fcst_cr, zero_flag
    obs = quantize(tr.wet_amounts(w, z, alpha, beta))
    # Forecasts stay continuous (they come from a model grid, not gauges).
    fcst += spec.wet_bias_offset
    return obs, fcst


def _synth_fields(sites, ranges_km, n_days, rng):
    """One (days, sites) unit Gaussian field per exponential correlation
    range, drawn day by day, each day's fields in the order of the ranges."""
    chols = [rf.cholesky_pd(rf.correlation_matrix(sites, rf.ExpCorrelation(r)))
             for r in ranges_km]
    fields = [np.empty((n_days, len(sites))) for _ in chols]
    for day in range(n_days):
        for field, chol in zip(fields, chols):
            field[day] = chol @ rng.standard_normal(len(sites))
    return fields
