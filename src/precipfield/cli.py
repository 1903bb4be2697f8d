"""Command-line surface: synth, fit, forecast, verify, sweep.

Every stochastic command requires an explicit seed; identical inputs and
seed produce byte-identical outputs. ``fit`` is deterministic and ignores
its seed. Progress goes to stderr, data to files.
Exit codes: 0 success, 2 usage/config error or unreadable file, 3 data/fit
error or input that is not UTF-8, 4 numerical failure.
"""

from __future__ import annotations

import csv
import logging
import os
import sys

import click

from . import data as dm
from . import estimation as est
from . import fields as rf
from . import forecasting as fc
from .errors import (
    DegenerateOccurrence,
    InsufficientData,
    NotFound,
    NoTrainingData,
    NumericalError,
    ParseError,
    PrecipError,
    RangeUnidentifiable,
    SeparationDetected,
    UsageError,
    ValidationError,
)
# Imported by name: perfbench's tracer wraps cli.run_verification, which verify calls.
from .verification import run_verification

log = logging.getLogger("precipfield")

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

POSITIVE = click.IntRange(min=1)
SEED = click.IntRange(min=0)
DATE = click.DateTime(formats=["%Y-%m-%d"])  # a datetime: callers take its .date()
MODE = click.Choice(["site", "grid", "areal"])

_DATA_ERRORS = (
    ParseError,
    ValidationError,
    NoTrainingData,
    NotFound,
    InsufficientData,
    DegenerateOccurrence,
    SeparationDetected,
    RangeUnidentifiable,
)


def _exit_for(exc):
    if isinstance(exc, _DATA_ERRORS):
        return EXIT_DATA
    if isinstance(exc, NumericalError):
        return EXIT_NUMERIC
    return EXIT_USAGE


class _Main(click.Group):
    """The command group. Its ``invoke`` is the one place where an error
    becomes an exit code: one ERROR line on stderr, then exit 2, 3 or 4."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PrecipError as exc:
            code, message = _exit_for(exc), str(exc)
        except UnicodeDecodeError as exc:
            code, message = EXIT_DATA, f"input is not UTF-8 text: {exc}"
        except OSError as exc:
            code, message = EXIT_USAGE, str(exc)
        log.error(message)
        sys.exit(code)


def read_config(path):
    """Line-oriented ``key = value`` config with ``#`` comments."""
    conf = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            conf[key.strip()] = val.strip()
    return conf


def _resolve(flag_value, config, key, default=None, cast=str):
    """Flags win over config values, which win over defaults."""
    if flag_value is not None:
        return flag_value
    if config and key in config:
        try:
            return cast(config[key])
        except click.BadParameter as exc:
            exc.param_hint = f"config key {key!r}"
            raise
    return default


@click.group(cls=_Main)
@click.option("-v", "--verbose", is_flag=True, help="Chatty progress on stderr.")
def main(verbose):
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )


@main.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--seed", type=SEED, default=None, help="Master seed (required).")
@click.option("--out", "outdir", type=str, default=None, help="Output directory.")
@click.option("--sites", "n_sites", type=POSITIVE, default=None)
@click.option("--days", "n_days", type=POSITIVE, default=None)
@click.option("--extent-km", type=float, default=None)
@click.option("--wet-bias-offset", type=float, default=None)
def synth(config_path, seed, outdir, n_sites, n_days, extent_km, wet_bias_offset):
    """Generate a synthetic dataset plus its truth-parameter file."""
    config = read_config(config_path) if config_path else {}
    seed = _resolve(seed, config, "seed", cast=SEED)
    outdir = _resolve(outdir, config, "out")
    if seed is None or outdir is None:
        raise UsageError("synth requires --seed and --out")
    spec = dm.SynthSpec(
        n_sites=_resolve(n_sites, config, "sites", 50, POSITIVE),
        n_days=_resolve(n_days, config, "days", 60, POSITIVE),
        extent_km=_resolve(extent_km, config, "extent_km", 300.0, click.FLOAT),
        wet_bias_offset=_resolve(wet_bias_offset, config, "wet_bias_offset", 0.0, click.FLOAT),
        seed=seed,
    )
    ds = dm.synth_generate(spec)
    dm.save_dataset(ds, os.path.join(outdir, "dataset.csv"))
    truth = dm.truth_parameters(spec)
    with open(os.path.join(outdir, "truth.txt"), "w", encoding="utf-8") as fh:
        for key, val in truth.items():
            fh.write(f"{key} = {val:.15g}\n")
    log.info("wrote %d records to %s", len(ds), outdir)


@main.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--dataset", "dataset_path", type=str, default=None)
@click.option("--date", "valid_date", type=DATE, default=None, help="Valid date (ISO).")
@click.option("--window-days", "-M", type=POSITIVE, default=None)
@click.option("--seed", type=SEED, default=None,
              help="Accepted and ignored: the fit is deterministic.")
@click.option("--out", "out_path", type=str, default=None, help="Model file path.")
def fit(config_path, dataset_path, valid_date, window_days, seed, out_path):
    """Fit the two-stage spatial model on a sliding training window."""
    del seed  # the fit draws no random numbers
    config = read_config(config_path) if config_path else {}
    dataset_path = _resolve(dataset_path, config, "dataset")
    valid_date = _resolve(valid_date, config, "date", cast=DATE)
    window_days = _resolve(window_days, config, "window_days", 30, POSITIVE)
    out_path = _resolve(out_path, config, "out")
    if None in (dataset_path, valid_date, out_path):
        raise UsageError("fit requires --dataset, --date and --out")
    ds = dm.load_dataset(dataset_path)
    model = est.fit_model(est.make_window(ds, valid_date.date(), window_days))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(model.to_text())
    log.info("wrote model to %s", out_path)


@main.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--model", "model_path", type=str, default=None)
@click.option("--dataset", "dataset_path", type=str, default=None)
@click.option("--date", "valid_date", type=DATE, default=None)
@click.option("--mode", type=MODE, default=None)
@click.option("--members", type=POSITIVE, default=None)
@click.option("--seed", type=SEED, default=None)
@click.option("--out", "out_path", type=str, default=None)
@click.option("--site-ids", type=str, default=None, help="Areal-mode site subset.")
@click.option("--grid-forecast", type=str, default=None,
              help="Grid-mode forecast CSV (row,col,value_hundredths_inch).")
@click.option("--grid-x0", type=float, default=None)
@click.option("--grid-y0", type=float, default=None)
@click.option("--grid-cell-km", type=float, default=None)
@click.option("--grid-nx", type=int, default=None)
@click.option("--grid-ny", type=int, default=None)
def forecast(config_path, model_path, dataset_path, valid_date, mode, members,
             seed, out_path, site_ids, grid_forecast, grid_x0, grid_y0,
             grid_cell_km, grid_nx, grid_ny):
    """Emit a forecast ensemble CSV in site, grid, or areal mode."""
    config = read_config(config_path) if config_path else {}
    model_path = _resolve(model_path, config, "model")
    dataset_path = _resolve(dataset_path, config, "dataset")
    valid_date = _resolve(valid_date, config, "date", cast=DATE)
    mode = _resolve(mode, config, "mode", "site", MODE)
    seed = _resolve(seed, config, "seed", cast=SEED)
    out_path = _resolve(out_path, config, "out")
    site_ids = _resolve(site_ids, config, "site_ids")
    if None in (model_path, seed, out_path):
        raise UsageError("forecast requires --model, --seed and --out")
    with open(model_path, encoding="utf-8") as fh:
        model = est.FittedModel.from_text(fh.read())

    if mode == "grid":
        grid_forecast = _resolve(grid_forecast, config, "grid_forecast")
        grid_nx = _resolve(grid_nx, config, "grid_nx", cast=click.INT)
        grid_ny = _resolve(grid_ny, config, "grid_ny", cast=click.INT)
        if None in (grid_forecast, grid_nx, grid_ny):
            raise UsageError("grid mode requires --grid-forecast, --grid-nx and --grid-ny")
        grid = rf.GridSpec(
            x0=_resolve(grid_x0, config, "grid_x0", 0.0, click.FLOAT),
            y0=_resolve(grid_y0, config, "grid_y0", 0.0, click.FLOAT),
            cell_km=_resolve(grid_cell_km, config, "grid_cell_km", 12.0, click.FLOAT),
            nx=grid_nx,
            ny=grid_ny,
        )
        field = dm.load_grid_field(grid_forecast, grid)
        n = _resolve(members, config, "members", fc.DEFAULT_GRID_MEMBERS, POSITIVE)
        ens = fc.generate_grid_ensemble(model, grid, field, n, seed)
        os.makedirs(out_path, exist_ok=True)
        fc.write_grid_ensemble_csvs(ens, out_path)
        log.info("wrote %d grid members to %s", n, out_path)
        return

    if dataset_path is None or valid_date is None:
        raise UsageError(f"{mode} mode requires --dataset and --date")
    valid_date = valid_date.date()
    sites, fcst, _ = dm.day_arrays(dm.load_dataset(dataset_path), valid_date)
    if mode == "areal":
        if site_ids:
            wanted = set(site_ids.split(","))
            absent = sorted(wanted - {s.id for s in sites})
            if absent:
                raise UsageError(f"site ids absent on {valid_date}: {','.join(absent)}")
            keep = [i for i, s in enumerate(sites) if s.id in wanted]
            sites = [sites[i] for i in keep]
            fcst = fcst[keep]
        n = _resolve(members, config, "members", fc.DEFAULT_AREAL_MEMBERS, POSITIVE)
        values = fc.areal_ensemble(model, sites, fcst, n, seed)
        fc.write_scalar_ensemble_csv(values, out_path)
        log.info("wrote %d areal members to %s", n, out_path)
    else:
        n = _resolve(members, config, "members", fc.DEFAULT_MULTISITE_MEMBERS, POSITIVE)
        ens = fc.generate_site_ensemble(model, sites, fcst, n, seed)
        fc.write_site_ensemble_csv(ens, out_path)
        log.info("wrote %d site members to %s", n, out_path)


@main.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--dataset", "dataset_path", type=str, default=None)
@click.option("--window-days", "-M", type=POSITIVE, default=None)
@click.option("--members", type=POSITIVE, default=None, help="Scoring ensemble size.")
@click.option("--mst-members", type=POSITIVE, default=None, help="Multi-site ensemble size.")
@click.option("--dates", "n_dates", type=POSITIVE, default=None,
              help="Verify only the last N eligible dates.")
@click.option("--seed", type=SEED, default=None)
@click.option("--out", "outdir", type=str, default=None)
def verify(config_path, dataset_path, window_days, members, mst_members,
           n_dates, seed, outdir):
    """Fit, forecast and score each eligible date; write report CSVs.

    Methods scored: empirical climatology, raw NWP point forecast, the
    no-spatial-correlation baseline, and the two-stage spatial model.
    """
    config = read_config(config_path) if config_path else {}
    dataset_path = _resolve(dataset_path, config, "dataset")
    window_days = _resolve(window_days, config, "window_days", 30, POSITIVE)
    members = _resolve(members, config, "members", 50, POSITIVE)
    mst_members = _resolve(mst_members, config, "mst_members",
                           fc.DEFAULT_MULTISITE_MEMBERS, POSITIVE)
    n_dates = _resolve(n_dates, config, "dates", cast=POSITIVE)
    seed = _resolve(seed, config, "seed", cast=SEED)
    outdir = _resolve(outdir, config, "out")
    if None in (dataset_path, seed, outdir):
        raise UsageError("verify requires --dataset, --seed and --out")

    ds = dm.load_dataset(dataset_path)
    eligible = ds.dates[1:]  # sorted and unique: every later date has history
    if n_dates:
        eligible = eligible[-n_dates:]
    if not eligible:
        raise NoTrainingData("no date has any history to train on")
    report, n_skipped = run_verification(
        ds, eligible, window_days, members, mst_members, seed)
    if n_skipped == len(eligible):
        raise InsufficientData("every date failed to fit or had no matching records")
    report.write(outdir)
    log.info("verified %d dates (%d skipped); report in %s",
             len(eligible) - n_skipped, n_skipped, outdir)


@main.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--dataset", "dataset_path", type=str, default=None)
@click.option("--window-days-list", "ms_text", type=str, default=None,
              help="Comma-separated window lengths (default 10,15,...,60).")
@click.option("--dates", "n_dates", type=POSITIVE, default=None,
              help="Score the last N eligible dates (default 10).")
@click.option("--members", type=POSITIVE, default=None)
@click.option("--seed", type=SEED, default=None)
@click.option("--out", "out_path", type=str, default=None)
def sweep(config_path, dataset_path, ms_text, n_dates, members, seed, out_path):
    """Mean CRPS as a function of the training-window length."""
    config = read_config(config_path) if config_path else {}
    dataset_path = _resolve(dataset_path, config, "dataset")
    ms_text = _resolve(ms_text, config, "window_days_list",
                       ",".join(str(m) for m in range(10, 61, 5)))
    n_dates = _resolve(n_dates, config, "dates", 10, POSITIVE)
    members = _resolve(members, config, "members", 50, POSITIVE)
    seed = _resolve(seed, config, "seed", cast=SEED)
    out_path = _resolve(out_path, config, "out")
    if None in (dataset_path, seed, out_path):
        raise UsageError("sweep requires --dataset, --seed and --out")
    try:
        ms = [int(tok) for tok in ms_text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad window list {ms_text!r}") from None
    if not ms or min(ms) < 1:
        raise UsageError(f"window lengths must be positive, got {ms_text!r}")
    ds = dm.load_dataset(dataset_path)
    eligible = ds.dates[max(ms):]  # sorted and unique: dates with max(ms) earlier days
    if not eligible:
        raise NoTrainingData(f"not enough history for M={max(ms)}")
    rows = est.window_sweep(ds, eligible[-n_dates:], ms, members, seed)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["M", "mean_crps", "se_crps", "n_cases", "n_skipped"])
        for row in rows:
            writer.writerow([row["M"], repr(row["mean_crps"]), repr(row["se_crps"]),
                             row["n_cases"], row["n_skipped"]])
    log.info("wrote sweep table to %s", out_path)


if __name__ == "__main__":
    main()
