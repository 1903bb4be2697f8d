"""Command-line surface: synth, fit, forecast, verify, sweep.

Every stochastic command requires an explicit seed; identical inputs and
seed produce byte-identical outputs, whatever the BLAS thread count and
whatever the number of CPUs: each command runs numpy's bundled OpenBLAS on
one thread (:func:`_one_blas_thread`), and a forecast's worker processes
give back their blocks in member order.
``fit`` is deterministic and ignores its seed. Progress goes to stderr, data
to files.
Exit codes: 0 success, else the ``exit_code`` of the error class (see
``errors``): 2 usage/config error or unreadable file, 3 data/fit error or
input that is not UTF-8, 4 numerical failure.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import logging
import os
import sys
import warnings

import click
import numpy as np

from . import data as dm
from . import estimation as est
from . import fields as rf
from . import forecasting as fc
from .errors import InsufficientData, PrecipError, UsageError
# Imported by name: perfbench's tracer wraps cli.run_verification, which verify calls.
from .verification import (SWEEP_HEADER, eligible_dates, run_verification,
                           warn_fit_diagnostics, window_sweep)

log = logging.getLogger("precipfield")

POSITIVE = click.IntRange(min=1)
SEED = click.IntRange(min=0)
DATE = click.DateTime(formats=["%Y-%m-%d"])  # a datetime: callers take its .date()
MODE = click.Choice(["site", "grid", "areal"])


class _Main(click.Group):
    """The command group. Its ``invoke`` is the one place where an error
    ends a command: one ERROR line on stderr, then exit with the error's
    ``exit_code`` (2 for an OSError)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PrecipError as exc:
            code, message = exc.exit_code, str(exc)
        except OSError as exc:
            code, message = 2, str(exc)
        log.error(message)
        sys.exit(code)


@functools.cache
def _one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread for the rest of the
    process. Its blocked Cholesky rounds differently on one and on two
    threads once a matrix has 128 or more rows, so without this a forecast
    at 150 sites would depend on OPENBLAS_NUM_THREADS. Does nothing where
    numpy does not bundle that library or it lacks the setter."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def read_config(path):
    """Line-oriented ``key = value`` config with ``#`` comments; a key given
    twice is a usage error naming its second line."""
    conf = {}
    for lineno, line in enumerate(dm.read_text(path).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = (part.strip() for part in line.partition("="))
        if key in conf:
            raise UsageError(f"{path}:{lineno}: repeated config key {key!r}")
        conf[key] = val
    return conf


def _load_config(ctx, param, path):
    """Make the ``--config`` file the command's ``default_map``, so that a
    flag wins over a config value, which wins over the option's default.
    Each key must name one of the command's options, and each value must
    pass that option's type, whether or not a flag overrides it."""
    if path is None:
        return
    config = read_config(path)
    options = {p.name: p for p in ctx.command.params if p is not param}
    for key, value in config.items():
        if key not in options:
            raise click.UsageError(f"{path}: unknown config key {key!r}", ctx)
        try:
            options[key].type(value, options[key], ctx)
        except click.BadParameter as exc:
            exc.param_hint = f"config key {key!r}"
            raise
    ctx.default_map = config


def _comma_list(text, what):
    """The tokens of a comma-separated list, blank ones skipped; a list that
    names nothing is a usage error."""
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise UsageError(f"{what} names nothing: {text!r}")
    return tokens


config_option = click.option(
    "--config", is_eager=True, expose_value=False, callback=_load_config,
    help="File of 'key = value' lines; a key is the long flag name with '-' as '_'.")


@click.group(cls=_Main)
@click.option("-v", "--verbose", is_flag=True, help="Chatty progress on stderr.")
def main(verbose):
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    # A Python warning shows as one WARNING line, not with its source line.
    warnings.showwarning = lambda message, *_, **__: log.warning("%s", message)
    _one_blas_thread()


@main.command()
@config_option
@click.option("--seed", type=SEED, required=True, help="Master seed.")
@click.option("--out", required=True, help="Output directory.")
@click.option("--sites", type=POSITIVE, default=50)
@click.option("--days", type=POSITIVE, default=60)
@click.option("--extent-km", type=float, default=300.0)
@click.option("--wet-bias-offset", type=float, default=0.0)
def synth(seed, out, sites, days, extent_km, wet_bias_offset):
    """Generate a synthetic dataset plus its truth-parameter model file."""
    spec = dm.SynthSpec(n_sites=sites, n_days=days, extent_km=extent_km,
                        wet_bias_offset=wet_bias_offset, seed=seed)
    ds = dm.synth_generate(spec)
    dm.save_dataset(ds, os.path.join(out, "dataset.csv"))
    with open(os.path.join(out, "truth.txt"), "w", encoding="utf-8") as fh:
        fh.write(est.truth_model(spec).to_text())
    log.info("wrote %d records to %s", len(ds), out)


@main.command()
@config_option
@click.option("--dataset", required=True)
@click.option("--date", type=DATE, required=True, help="Valid date (ISO).")
@click.option("--window-days", "-M", type=POSITIVE, default=30)
@click.option("--seed", type=SEED, help="Accepted and ignored: the fit is deterministic.")
@click.option("--out", required=True, help="Model file path.")
def fit(dataset, date, window_days, seed, out):
    """Fit the two-stage spatial model on a sliding training window."""
    del seed  # the fit draws no random numbers
    ds = dm.load_dataset(dataset)
    model = est.fit_model(est.make_window(ds, date.date(), window_days))
    warn_fit_diagnostics(model, date.date(), window_days)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(model.to_text())
    log.info("wrote model to %s", out)


@main.command()
@config_option
@click.option("--model", required=True)
@click.option("--dataset")
@click.option("--date", type=DATE)
@click.option("--mode", type=MODE, default="site")
@click.option("--members", type=POSITIVE, help="Ensemble size (default set by --mode).")
@click.option("--seed", type=SEED, required=True)
@click.option("--out", required=True)
@click.option("--site-ids", help="Areal-mode site subset.")
@click.option("--grid-forecast",
              help="Grid-mode forecast CSV (row,col,value_hundredths_inch).")
@click.option("--grid-x0", type=float, default=0.0)
@click.option("--grid-y0", type=float, default=0.0)
@click.option("--grid-cell-km", type=float, default=12.0)
@click.option("--grid-nx", type=int)
@click.option("--grid-ny", type=int)
def forecast(model, dataset, date, mode, members, seed, out, site_ids, grid_forecast,
             grid_x0, grid_y0, grid_cell_km, grid_nx, grid_ny):
    """Emit a forecast ensemble CSV in site, grid, or areal mode."""
    fitted = est.FittedModel.from_text(dm.read_text(model))

    if mode == "grid":
        if None in (grid_forecast, grid_nx, grid_ny):
            raise UsageError("grid mode requires --grid-forecast, --grid-nx and --grid-ny")
        grid = rf.GridSpec(x0=grid_x0, y0=grid_y0, cell_km=grid_cell_km, nx=grid_nx, ny=grid_ny)
        field = dm.load_grid_field(grid_forecast, grid)
        plan = fc.GridForecast(fitted, grid, field)
        if plan.fallback_sites:
            _warn_fallback(f"{len(plan.fallback_sites)} grid cells")
        n = members or fc.DEFAULT_GRID_MEMBERS
        os.makedirs(out, exist_ok=True)
        fc.write_grid_ensemble_csvs(grid, plan.member_blocks(n, seed), out)
        log.info("wrote %d grid members to %s", n, out)
        return

    if dataset is None or date is None:
        raise UsageError(f"{mode} mode requires --dataset and --date")
    date = date.date()
    sites, fcst, _ = dm.day_arrays(dm.load_dataset(dataset), date)
    if mode == "areal" and site_ids is not None:
        wanted = set(_comma_list(site_ids, "--site-ids"))
        absent = sorted(wanted - {s.id for s in sites})
        if absent:
            raise UsageError(f"site ids absent on {date}: {','.join(absent)}")
        keep = [i for i, s in enumerate(sites) if s.id in wanted]
        sites = [sites[i] for i in keep]
        fcst = fcst[keep]
    plan = fc.SiteForecast(fitted, sites, fcst)
    if plan.fallback_sites:
        _warn_fallback("sites " + ", ".join(sites[i].id for i in plan.fallback_sites))
    # The correlation factors are made, and the writer's workers forked,
    # before the output file is opened.
    if mode == "areal":
        n = members or fc.DEFAULT_AREAL_MEMBERS
        fc.write_scalar_ensemble_csv(plan.areal_blocks(n, seed), out)
        log.info("wrote %d areal members to %s", n, out)
    else:
        n = members or fc.DEFAULT_MULTISITE_MEMBERS
        fc.write_site_ensemble_csv(sites, plan.member_blocks(n, seed), out)
        log.info("wrote %d site members to %s", n, out)


def _warn_fallback(where):
    log.warning("implied Gamma mean not positive at %s; forecast with the fallback mean "
                "diag.min_training_mean", where)


@main.command()
@config_option
@click.option("--dataset", required=True)
@click.option("--window-days", "-M", type=POSITIVE, default=30)
@click.option("--members", type=POSITIVE, default=50, help="Scoring ensemble size.")
@click.option("--mst-members", type=POSITIVE, default=fc.DEFAULT_MULTISITE_MEMBERS,
              help="Multi-site ensemble size.")
@click.option("--dates", type=POSITIVE, help="Verify only the last N eligible dates.")
@click.option("--seed", type=SEED, required=True)
@click.option("--out", required=True)
def verify(dataset, window_days, members, mst_members, dates, seed, out):
    """Fit, forecast and score each eligible date; write report CSVs.

    Methods scored: empirical climatology, raw NWP point forecast, the
    no-spatial-correlation baseline, and the two-stage spatial model.
    """
    ds = dm.load_dataset(dataset)
    eligible = eligible_dates(ds, window_days, dates)
    report, n_skipped = run_verification(
        ds, eligible, window_days, members, mst_members, seed)
    if n_skipped == len(eligible):
        raise InsufficientData("every date failed to fit or had no matching records")
    report.write(out)
    log.info("verified %d dates (%d skipped); report in %s",
             len(eligible) - n_skipped, n_skipped, out)


@main.command()
@config_option
@click.option("--dataset", required=True)
@click.option("--window-days-list",
              default=",".join(str(m) for m in range(10, 61, 5)),
              help="Comma-separated window lengths (default 10,15,...,60).")
@click.option("--dates", type=POSITIVE, default=10,
              help="Score the last N eligible dates (default 10).")
@click.option("--members", type=POSITIVE, default=50)
@click.option("--seed", type=SEED, required=True)
@click.option("--out", required=True)
def sweep(dataset, window_days_list, dates, members, seed, out):
    """Mean CRPS as a function of the training-window length."""
    try:
        ms = [int(tok) for tok in _comma_list(window_days_list, "--window-days-list")]
    except ValueError:
        raise UsageError(f"bad window list {window_days_list!r}") from None
    if min(ms) < 1:
        raise UsageError(f"window lengths must be positive, got {window_days_list!r}")
    ds = dm.load_dataset(dataset)
    eligible = eligible_dates(ds, max(ms), dates)
    dm.write_table(out, SWEEP_HEADER, window_sweep(ds, eligible, ms, members, seed))
    log.info("wrote sweep table to %s", out)


if __name__ == "__main__":
    main()
