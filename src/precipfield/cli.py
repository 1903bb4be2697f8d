"""Command-line surface: synth, fit, forecast, verify, sweep.

Every stochastic command requires an explicit seed; identical inputs and
seed produce byte-identical outputs. ``fit`` is deterministic and ignores
its seed. Progress goes to stderr, data to files.
Exit codes: 0 success, 2 usage/config error, 3 data/fit error, 4 numerical
failure.
"""

from __future__ import annotations

import csv
import logging
import os
import sys

import click
import numpy as np
from scipy.special import ndtr

from . import data as dm
from . import estimation as est
from . import fields as rf
from . import forecasting as fc
from . import transforms as tr
from . import verification as vf
from .errors import (
    DegenerateOccurrence,
    DomainError,
    InsufficientData,
    NotFound,
    NoTrainingData,
    NumericalError,
    ParseError,
    PrecipError,
    RangeUnidentifiable,
    SeparationDetected,
    ValidationError,
)

log = logging.getLogger("precipfield")

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

POSITIVE = click.IntRange(min=1)
SEED = click.IntRange(min=0)
DATE = click.DateTime(formats=["%Y-%m-%d"])  # a datetime: callers take its .date()

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


def _fail(code, message):
    log.error(message)
    sys.exit(code)


def _exit_for(exc):
    if isinstance(exc, _DATA_ERRORS):
        return EXIT_DATA
    if isinstance(exc, NumericalError):
        return EXIT_NUMERIC
    if isinstance(exc, (DomainError, PrecipError)):
        return EXIT_USAGE
    raise exc


def read_config(path):
    """Line-oriented ``key = value`` config with ``#`` comments."""
    conf = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
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


@click.group()
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
@click.option("--sites", "n_sites", type=int, default=None)
@click.option("--days", "n_days", type=int, default=None)
@click.option("--extent-km", type=float, default=None)
@click.option("--wet-bias-offset", type=float, default=None)
def synth(config_path, seed, outdir, n_sites, n_days, extent_km, wet_bias_offset):
    """Generate a synthetic dataset plus its truth-parameter file."""
    config = read_config(config_path) if config_path else {}
    seed = _resolve(seed, config, "seed", cast=SEED)
    outdir = _resolve(outdir, config, "out")
    if seed is None or outdir is None:
        _fail(EXIT_USAGE, "synth requires --seed and --out")
    if not os.path.isdir(outdir):
        _fail(EXIT_USAGE, f"output directory {outdir} does not exist")
    spec = dm.SynthSpec(
        n_sites=_resolve(n_sites, config, "sites", 50, int),
        n_days=_resolve(n_days, config, "days", 60, int),
        extent_km=_resolve(extent_km, config, "extent_km", 300.0, float),
        wet_bias_offset=_resolve(wet_bias_offset, config, "wet_bias_offset", 0.0, float),
        seed=seed,
    )
    try:
        ds = dm.synth_generate(spec)
    except PrecipError as exc:
        _fail(_exit_for(exc), str(exc))
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
        _fail(EXIT_USAGE, "fit requires --dataset, --date and --out")
    try:
        ds = dm.load_dataset(dataset_path)
        window = est.make_window(ds, valid_date.date(), window_days)
        model = est.fit_model(window)
    except PrecipError as exc:
        _fail(_exit_for(exc), str(exc))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(model.to_text())
    log.info("wrote model to %s", out_path)


@main.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--model", "model_path", type=str, default=None)
@click.option("--dataset", "dataset_path", type=str, default=None)
@click.option("--date", "valid_date", type=DATE, default=None)
@click.option("--mode", type=click.Choice(["site", "grid", "areal"]), default=None)
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
    mode = _resolve(mode, config, "mode", "site")
    seed = _resolve(seed, config, "seed", cast=SEED)
    out_path = _resolve(out_path, config, "out")
    site_ids = _resolve(site_ids, config, "site_ids")
    if None in (model_path, seed, out_path):
        _fail(EXIT_USAGE, "forecast requires --model, --seed and --out")

    try:
        with open(model_path, encoding="utf-8") as fh:
            model = est.FittedModel.from_text(fh.read())
    except (OSError, KeyError, ValueError, PrecipError) as exc:
        _fail(EXIT_USAGE, f"cannot read model file: {exc}")

    try:
        if mode == "grid":
            grid_forecast = _resolve(grid_forecast, config, "grid_forecast")
            grid_nx = _resolve(grid_nx, config, "grid_nx", cast=int)
            grid_ny = _resolve(grid_ny, config, "grid_ny", cast=int)
            if None in (grid_forecast, grid_nx, grid_ny):
                _fail(EXIT_USAGE, "grid mode requires --grid-forecast, --grid-nx and --grid-ny")
            grid = rf.GridSpec(
                x0=_resolve(grid_x0, config, "grid_x0", 0.0, float),
                y0=_resolve(grid_y0, config, "grid_y0", 0.0, float),
                cell_km=_resolve(grid_cell_km, config, "grid_cell_km", 12.0, float),
                nx=grid_nx,
                ny=grid_ny,
            )
            field = _read_grid_csv(grid_forecast, grid)
            n = _resolve(members, config, "members", fc.DEFAULT_GRID_MEMBERS, POSITIVE)
            ens = fc.generate_grid_ensemble(model, grid, field, n, seed)
            os.makedirs(out_path, exist_ok=True)
            fc.write_grid_ensemble_csvs(ens, out_path)
            log.info("wrote %d grid members to %s", n, out_path)
            return

        if dataset_path is None or valid_date is None:
            _fail(EXIT_USAGE, f"{mode} mode requires --dataset and --date")
        valid_date = valid_date.date()
        ds = dm.load_dataset(dataset_path)
        sites, fcst, _ = dm.day_arrays(ds, valid_date)
        if mode == "areal":
            if site_ids:
                wanted = set(site_ids.split(","))
                absent = sorted(wanted - {s.id for s in sites})
                if absent:
                    _fail(EXIT_USAGE, f"site ids absent on {valid_date}: {','.join(absent)}")
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
    except PrecipError as exc:
        code = _exit_for(exc)
        if code == EXIT_NUMERIC:
            _fail(code, f"{exc} (try a smaller grid, or dense site-mode sampling)")
        _fail(code, str(exc))


def _read_grid_csv(path, grid):
    """Gridded forecast with exactly one finite, nonnegative value per cell."""
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
        _fail(EXIT_USAGE, "verify requires --dataset, --seed and --out")

    try:
        ds = dm.load_dataset(dataset_path)
    except PrecipError as exc:
        _fail(_exit_for(exc), str(exc))
    eligible = ds.dates[1:]  # sorted and unique: every later date has history
    if n_dates:
        eligible = eligible[-n_dates:]
    if not eligible:
        _fail(EXIT_DATA, "no date has any history to train on")

    report, n_unmatched = run_verification(
        ds, eligible, window_days, members, mst_members, seed)
    if n_unmatched == len(eligible):
        _fail(EXIT_DATA, "every date failed to fit or had no matching records")
    report.write(outdir)
    log.info("verified %d dates (%d skipped); report in %s",
             len(eligible) - n_unmatched, n_unmatched, outdir)


def run_verification(ds, valid_dates, window_days, members, mst_members, seed):
    """Score the four methods over the given dates; returns (report, skipped)."""
    report = vf.VerificationReport()
    rank_bins = {m: [] for m in ("climatology", "independence", "spatial")}
    pit_vals = {m: [] for m in ("climatology", "spatial")}
    mst_ranks = {"independence": [], "spatial": []}
    rel = {m: ([], []) for m in ("climatology", "nwp", "independence", "spatial")}
    n_unmatched = 0

    for di, valid_date in enumerate(valid_dates):
        stage = "window"
        try:
            history, _ = dm.split_by_date(ds, valid_date)
            window = est.make_window(ds, valid_date, window_days)
            stage = "fit"
            model = est.fit_model(window)
            est.warn_fit_diagnostics(model, valid_date, window_days)
            stage = "load"
            sites, fcst, obs = dm.day_arrays(ds, valid_date)
            stage = "forecast"
            seeds = [np.random.SeedSequence(entropy=seed, spawn_key=(di, k))
                     for k in range(4)]
            ens_sp = fc.generate_site_ensemble(model, sites, fcst, members, seeds[0])
            ens_in = fc.independence_baseline_ensemble(model, sites, fcst, members, seeds[1])
            sp19 = fc.generate_site_ensemble(model, sites, fcst, mst_members, seeds[2])
            in19 = fc.independence_baseline_ensemble(model, sites, fcst, mst_members, seeds[3])
            fcst_cr = np.cbrt(fcst)
            zero_flag = fcst == 0.0
            p_wet = ndtr(tr.occurrence_trend(model.occurrence, fcst_cr, zero_flag))
            marginals, _ = fc._site_marginals(model, fcst_cr, zero_flag)
        except PrecipError as exc:
            log.warning("skip %s at stage %s: %s: %s",
                        valid_date, stage, type(exc).__name__, exc)
            n_unmatched += 1
            continue

        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(1000 + di,)))
        clim = history.obs
        clim_p0 = float((clim == 0).mean())
        clim_cdf = vf.empirical_cdf(clim)

        for j in range(len(sites)):
            o = float(obs[j])
            occurred = o > 0
            # Climatology.
            report.add_case("climatology", valid_date, site_id=sites[j].id,
                            mae=vf.mae_of_median(clim, o),
                            crps=vf.crps_ensemble(clim, o),
                            bs=vf.brier_score(1.0 - clim_p0, occurred))
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
                            bs=vf.brier_score(float(f > 0), occurred))
            rel["nwp"][0].append(float(f > 0))
            rel["nwp"][1].append(occurred)
            # Statistical ensembles.
            p = float(p_wet[j])
            for name, ens in (("independence", ens_in), ("spatial", ens_sp)):
                mem = ens.members[:, j]
                report.add_case(name, valid_date, site_id=sites[j].id,
                                mae=vf.mae_of_median(mem, o),
                                crps=vf.crps_ensemble(mem, o),
                                bs=vf.brier_score(p, occurred))
                rank_bins[name].append(vf.verification_rank(mem, o, rng))
                rel[name][0].append(p)
                rel[name][1].append(occurred)
            # Climatology ranks scale to [0, 1] (the history is large).
            clim_rank = vf.verification_rank(clim, o, rng)
            rank_bins["climatology"].append((clim_rank - 0.5) / (clim.size + 1))
            pit_vals["spatial"].append(vf.pit_value(1.0 - p, marginals[j], o, rng))

        # Multivariate scores over the day's sites.
        for name, ens in (("independence", in19), ("spatial", sp19)):
            report.energy.setdefault(name, []).append(
                vf.energy_score(ens.members, obs))
            mst_ranks[name].append(vf.mst_rank(ens.members, obs, rng))
        report.energy.setdefault("nwp", []).append(
            float(np.linalg.norm(fcst - obs)))

    for name, ranks in rank_bins.items():
        if not ranks:
            continue
        if name == "climatology":
            report.pit_hists["climatology_rank"] = vf.pit_histogram(np.asarray(ranks))
        else:
            report.rank_hists[name] = vf.rank_histogram(ranks, members + 1)
    for name, vals in pit_vals.items():
        if vals:
            report.pit_hists[name] = vf.pit_histogram(np.asarray(vals))
    for name, ranks in mst_ranks.items():
        if ranks:
            report.mst_hists[name] = vf.rank_histogram(ranks, mst_members + 1)
    for name, (probs, outs) in rel.items():
        if probs:
            report.reliability[name] = vf.reliability_table(
                np.asarray(probs), np.asarray(outs, dtype=float))
    return report, n_unmatched


@main.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--dataset", "dataset_path", type=str, default=None)
@click.option("--window-days-list", "ms_text", type=str, default=None,
              help="Comma-separated window lengths (default 10,15,...,60).")
@click.option("--dates", "n_dates", type=POSITIVE, default=None,
              help="Score the last N eligible dates (default 10).")
@click.option("--members", type=int, default=None)
@click.option("--seed", type=SEED, default=None)
@click.option("--out", "out_path", type=str, default=None)
def sweep(config_path, dataset_path, ms_text, n_dates, members, seed, out_path):
    """Mean CRPS as a function of the training-window length."""
    config = read_config(config_path) if config_path else {}
    dataset_path = _resolve(dataset_path, config, "dataset")
    ms_text = _resolve(ms_text, config, "window_days_list",
                       ",".join(str(m) for m in range(10, 61, 5)))
    n_dates = _resolve(n_dates, config, "dates", 10, POSITIVE)
    members = _resolve(members, config, "members", 50, int)
    seed = _resolve(seed, config, "seed", cast=SEED)
    out_path = _resolve(out_path, config, "out")
    if None in (dataset_path, seed, out_path):
        _fail(EXIT_USAGE, "sweep requires --dataset, --seed and --out")
    try:
        ms = [int(tok) for tok in ms_text.split(",") if tok.strip()]
    except ValueError:
        _fail(EXIT_USAGE, f"bad window list {ms_text!r}")
    if not ms or min(ms) < 1:
        _fail(EXIT_USAGE, f"window lengths must be positive, got {ms_text!r}")
    try:
        ds = dm.load_dataset(dataset_path)
        max_m = max(ms)
        eligible = ds.dates[max_m:]  # sorted and unique: dates with max_m earlier days
        if not eligible:
            _fail(EXIT_DATA, f"not enough history for M={max_m}")
        valid_dates = eligible[-n_dates:]
        rows = est.window_sweep(ds, valid_dates, ms, members, seed)
    except PrecipError as exc:
        _fail(_exit_for(exc), str(exc))
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["M", "mean_crps", "se_crps", "n_cases", "n_skipped"])
        for row in rows:
            writer.writerow([row["M"], repr(row["mean_crps"]), repr(row["se_crps"]),
                             row["n_cases"], row["n_skipped"]])
    log.info("wrote sweep table to %s", out_path)


if __name__ == "__main__":
    main()
