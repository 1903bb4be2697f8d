"""The four closed-loop workloads: seeded inputs, operations and output checks.

A workload's *cycle* is a fixed list of operations on fixed inputs, so every
cycle of a run does the same work. Inputs are made through the program's
own ``synth`` command and rewritten with the standard library; the commands
under test see only the generated files. Every operation has an output check
that is not timed; a failed check counts as a failed operation.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
from collections import namedtuple

import numpy as np

TRUTH_RANGES_KM = {"rho_km": 35.0, "r_km": 25.0}
RANGE_SEARCH_KM = (1.0, 2000.0)
PARAM_KEYS = ("gamma0", "gamma1", "gamma2", "rho_km", "eta0", "eta1", "eta2",
              "nu0", "nu1", "r_km")
REPORT_FILES = ("scores.csv", "summary.csv", "rank_hist.csv", "pit_hist.csv",
                "mst_hist.csv", "reliability.csv")


# One operation: ``run()`` is timed and returns the exit code or None;
# ``check(code)`` is not timed and returns an error message or None.
Op = namedtuple("Op", "kind run check")


class Program:
    """The package under test, called in-process the way a user would."""

    def __init__(self, cli, data, estimation):
        self.cli = cli
        self.data = data
        self.estimation = estimation

    def command(self, *args):
        """Run one CLI command; returns its exit code."""
        import click

        try:
            rv = self.cli.main.main(args=[str(a) for a in args], standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            return exc.exit_code
        return rv if isinstance(rv, int) else 0


def _seed(seed, stream):
    """Independent non-negative sub-seed for one input stream."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _dict_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _synth(program, outdir, seed, sites, days):
    os.makedirs(outdir, exist_ok=True)
    code = program.command("synth", "--seed", seed, "--sites", sites, "--days", days,
                           "--out", outdir)
    if code != 0:
        raise RuntimeError(f"input generation: synth exited with {code}")
    return os.path.join(outdir, "dataset.csv")


def _last_date(dataset_path):
    return max(row[3] for row in _read_rows(dataset_path)[1:])


def _column(path, col):
    """One numeric column of a CSV with a header, as an array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=col, ndmin=1)


def _values_ok(values, expected):
    if values.size != expected:
        return f"expected {expected} values, found {values.size}"
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        return "values must be finite and >= 0"
    return None


def read_model(path):
    """Parameters of a model or truth file (``key = value`` lines), diagnostics
    left out."""
    params = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, val = line.partition("=")
            if sep and not key.strip().startswith("diag."):
                params[key.strip()] = float(val)
    return params


class Workload:
    """Base: ``sizes`` are recorded in the run record."""

    name = ""
    sizes = {}

    def __init__(self, program, workdir, seed):
        self.program = program
        self.workdir = workdir
        self.seed = seed

    def generate(self, indir):
        """Write this workload's inputs under ``indir``."""

    def cycle(self, indir):
        """The fixed list of operations one cycle runs on the inputs in ``indir``."""
        raise NotImplementedError

    def named_metrics(self, op_seconds):
        """Workload metrics as {name: (value, unit)} from the median seconds
        per operation kind and the state the checks recorded."""
        raise NotImplementedError


class FitGappy(Workload):
    """``fit`` on a network that misses 10% of its site-day reports."""

    name = "fit_gappy"
    sizes = {"sites": 25, "days": 60, "dropped_site_days": 150, "window_days": 10}

    def generate(self, indir):
        path = _synth(self.program, indir, _seed(self.seed, 0),
                      self.sizes["sites"], self.sizes["days"])
        rows = _read_rows(path)
        header, body = rows[0], rows[1:]
        by_date = {}
        for row in body:
            by_date.setdefault(row[3], []).append(row)
        # 2 or 3 of the 25 sites miss each day (10% of site-days): every day
        # has its own geometry, and every window holds the same number of
        # reports whatever the seed.
        rng = np.random.default_rng(_seed(self.seed, 1))
        kept = []
        for i, date in enumerate(sorted(by_date)):
            day = by_date[date]
            drop = set(rng.choice(len(day), size=2 + i % 2, replace=False).tolist())
            kept.extend(r for j, r in enumerate(day) if j not in drop)
        _write_rows(os.path.join(indir, "gappy.csv"), [header] + kept)
        os.remove(path)

    def cycle(self, indir):
        model = os.path.join(self.workdir, "model.txt")
        dataset = os.path.join(indir, "gappy.csv")
        date = _last_date(dataset)

        def run():
            if os.path.exists(model):
                os.remove(model)
            return self.program.command(
                "fit", "--dataset", dataset, "--date", date,
                "-M", self.sizes["window_days"], "--seed", _seed(self.seed, 2),
                "--out", model)

        def check(code):
            if code != 0:
                return f"fit exited with {code}"
            with open(model, encoding="utf-8") as fh:
                self.program.estimation.FittedModel.from_text(fh.read())
            params = read_model(model)
            if sorted(params) != sorted(PARAM_KEYS):
                return f"model keys {sorted(params)}"
            if not all(math.isfinite(v) for v in params.values()):
                return "non-finite parameter"
            lo, hi = RANGE_SEARCH_KM
            for key in TRUTH_RANGES_KM:
                # A range at the search bound is a failed fit, not an estimate.
                if not lo * 1.001 < params[key] < hi / 1.001:
                    return f"{key} = {params[key]} at the search bound"
            self.last_model = params
            return None

        return [Op("fit", run, check)]

    def named_metrics(self, op_seconds):
        params = self.last_model
        err = np.mean([abs(params[k] - v) / v for k, v in TRUTH_RANGES_KM.items()])
        return {
            "fits_per_min": (60.0 / op_seconds["fit"], "1/min"),
            "fit_range_rel_err": (float(err), "ratio"),
        }


class ForecastEnsemble(Workload):
    """``forecast`` in site, areal and grid mode from the truth parameters."""

    name = "forecast_ensemble"
    sizes = {"sites": 100, "site_members": 2500, "areal_members": 5000,
             "grid_nx": 100, "grid_ny": 100, "grid_cell_km": 3.0, "grid_members": 25}

    def generate(self, indir):
        s = self.sizes
        path = _synth(self.program, indir, _seed(self.seed, 0), s["sites"], 2)
        truth = read_model(os.path.join(indir, "truth.txt"))
        # diag.min_training_mean as fit_model defines it: the smallest positive
        # implied Gamma mean over the wet records.
        obs, fcst = _column(path, 4), _column(path, 5)
        wet = obs > 0
        means = (truth["eta0"] + truth["eta1"] * np.cbrt(fcst[wet])
                 + truth["eta2"] * (fcst[wet] == 0.0))
        pos = means[means > 0]
        min_mean = float(pos.min()) if pos.size else 0.1
        with open(os.path.join(indir, "model.txt"), "w", encoding="utf-8") as fh:
            for key in PARAM_KEYS:
                fh.write(f"{key} = {truth[key]!r}\n")
            fh.write(f"diag.min_training_mean = {min_mean!r}\n")
        # Grid forecast: a few seeded Gaussian rain cells, dry elsewhere.
        rng = np.random.default_rng(_seed(self.seed, 1))
        ny, nx = s["grid_ny"], s["grid_nx"]
        yy, xx = np.mgrid[0:ny, 0:nx]
        field = np.zeros((ny, nx))
        for _ in range(8):
            cy, cx = rng.uniform(0, ny), rng.uniform(0, nx)
            width = rng.uniform(5.0, 20.0)
            field += rng.uniform(20.0, 120.0) * np.exp(
                -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
        field = np.where(field < 5.0, 0.0, field)
        _write_rows(os.path.join(indir, "grid.csv"),
                    [["row", "col", "value_hundredths_inch"]]
                    + [[iy, ix, repr(float(field[iy, ix]))]
                       for iy in range(ny) for ix in range(nx)])

    def cycle(self, indir):
        s = self.sizes
        model = os.path.join(indir, "model.txt")
        dataset = os.path.join(indir, "dataset.csv")
        date = _last_date(dataset)
        out = os.path.join(self.workdir, "out")
        seed = _seed(self.seed, 2)
        site_csv = os.path.join(out, "site.csv")
        areal_csv = os.path.join(out, "areal.csv")
        grid_dir = os.path.join(out, "grid")

        def fresh():
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)

        def run_site():
            fresh()
            return self.program.command(
                "forecast", "--model", model, "--dataset", dataset, "--date", date,
                "--mode", "site", "--members", s["site_members"], "--seed", seed,
                "--out", site_csv)

        def run_areal():
            fresh()
            return self.program.command(
                "forecast", "--model", model, "--dataset", dataset, "--date", date,
                "--mode", "areal", "--members", s["areal_members"], "--seed", seed,
                "--out", areal_csv)

        def run_grid():
            fresh()
            return self.program.command(
                "forecast", "--model", model, "--mode", "grid",
                "--members", s["grid_members"], "--seed", seed,
                "--grid-forecast", os.path.join(indir, "grid.csv"),
                "--grid-x0", 0, "--grid-y0", 0, "--grid-cell-km", s["grid_cell_km"],
                "--grid-nx", s["grid_nx"], "--grid-ny", s["grid_ny"], "--out", grid_dir)

        def check_site(code):
            if code != 0:
                return f"site forecast exited with {code}"
            return _values_ok(_column(site_csv, 2), s["site_members"] * s["sites"])

        def check_areal(code):
            if code != 0:
                return f"areal forecast exited with {code}"
            return _values_ok(_column(areal_csv, 1), s["areal_members"])

        def check_grid(code):
            if code != 0:
                return f"grid forecast exited with {code}"
            files = sorted(os.listdir(grid_dir))
            if len(files) != s["grid_members"]:
                return f"expected {s['grid_members']} grid files, found {len(files)}"
            for name in files:
                err = _values_ok(_column(os.path.join(grid_dir, name), 2),
                                 s["grid_nx"] * s["grid_ny"])
                if err:
                    return f"{name}: {err}"
            return None

        return [Op("site", run_site, check_site), Op("areal", run_areal, check_areal),
                Op("grid", run_grid, check_grid)]

    def named_metrics(self, op_seconds):
        s = self.sizes
        return {
            "site_members_per_s": (s["site_members"] / op_seconds["site"], "1/s"),
            "areal_members_per_s": (s["areal_members"] / op_seconds["areal"], "1/s"),
            "grid_cells_per_s": (s["grid_members"] * s["grid_nx"] * s["grid_ny"]
                                 / op_seconds["grid"], "1/s"),
        }


class VerifyRolling(Workload):
    """``verify`` on a complete network: refit, forecast and score per date."""

    name = "verify_rolling"
    sizes = {"sites": 30, "days": 90, "window_days": 30, "members": 50, "dates": 1}

    def generate(self, indir):
        _synth(self.program, indir, _seed(self.seed, 0), self.sizes["sites"],
               self.sizes["days"])

    def cycle(self, indir):
        s = self.sizes
        dataset = os.path.join(indir, "dataset.csv")
        out = os.path.join(self.workdir, "report")

        def run():
            shutil.rmtree(out, ignore_errors=True)
            return self.program.command(
                "verify", "--dataset", dataset, "-M", s["window_days"],
                "--members", s["members"], "--dates", s["dates"],
                "--seed", _seed(self.seed, 1), "--out", out)

        def check(code):
            if code != 0:
                return f"verify exited with {code}"
            for name in REPORT_FILES:
                if not os.path.isfile(os.path.join(out, name)):
                    return f"missing {name}"
            summary = {r["method"]: r for r in _dict_rows(os.path.join(out, "summary.csv"))}
            if sorted(summary) != ["climatology", "independence", "nwp", "spatial"]:
                return f"summary methods {sorted(summary)}"
            dates = {r["date"] for r in _dict_rows(os.path.join(out, "scores.csv"))}
            if not dates:
                return "no date verified"
            self.verified_dates = len(dates)
            self.skill = 1.0 - (float(summary["spatial"]["crps"])
                                / float(summary["climatology"]["crps"]))
            return None

        return [Op("verify", run, check)]

    def named_metrics(self, op_seconds):
        return {
            "verify_dates_per_min": (60.0 * self.verified_dates / op_seconds["verify"],
                                     "1/min"),
            "spatial_crps_skill": (self.skill, "ratio"),
        }


class IngestYear(Workload):
    """Write, read and window a year of 200 sites through the data layer."""

    name = "ingest_year"
    sizes = {"sites": 200, "days": 365, "rows": 200 * 365, "window_days": 30,
             "windows": 3}

    def cycle(self, indir):
        s = self.sizes
        outdir = os.path.join(self.workdir, "year")
        path = os.path.join(outdir, "dataset.csv")
        state = {}

        def run_synth():
            shutil.rmtree(outdir, ignore_errors=True)
            os.makedirs(outdir)
            return self.program.command("synth", "--seed", _seed(self.seed, 0),
                                        "--sites", s["sites"], "--days", s["days"],
                                        "--out", outdir)

        def check_synth(code):
            if code != 0:
                return f"synth exited with {code}"
            with open(path, encoding="utf-8") as fh:
                written = sum(1 for _ in fh) - 1
            if written != s["rows"]:
                return f"synth wrote {written} rows, expected {s['rows']}"
            return None

        def run_load():
            state["ds"] = self.program.data.load_dataset(path)

        def check_load(_):
            if len(state["ds"]) != s["rows"]:
                return f"loaded {len(state['ds'])} rows, wrote {s['rows']}"
            return None

        def run_windows():
            ds = state["ds"]
            out = []
            for date in ds.dates[-s["windows"]:]:
                window = self.program.estimation.make_window(ds, date, s["window_days"])
                history, current = self.program.data.split_by_date(ds, date)
                out.append((date, window, history, current))
            state["windows"] = out

        def check_windows(_):
            dates = state["ds"].dates
            for date, window, history, current in state["windows"]:
                available = sum(1 for d in dates if d < date)
                if len(window.days) != min(s["window_days"], available):
                    return f"{date}: window has {len(window.days)} days"
                if len(history) != available * s["sites"] or len(current) != s["sites"]:
                    return f"{date}: split sizes {len(history)}, {len(current)}"
            return None

        return [Op("synth", run_synth, check_synth), Op("load", run_load, check_load),
                Op("windows", run_windows, check_windows)]

    def named_metrics(self, op_seconds):
        s = self.sizes
        return {
            "synth_rows_per_s": (s["rows"] / op_seconds["synth"], "1/s"),
            "load_rows_per_s": (s["rows"] / op_seconds["load"], "1/s"),
            "windows_per_s": (s["windows"] / op_seconds["windows"], "1/s"),
        }


class Combined(Workload):
    """The cycles of ``parts`` run back to back as one cycle.

    Each part keeps its inputs, outputs, checks and named metrics; its
    operation kinds are distinct, so the metrics do not collide.
    """

    parts = ()

    def __init__(self, program, workdir, seed):
        super().__init__(program, workdir, seed)
        self.members = [part(program, os.path.join(workdir, part.name), seed)
                        for part in self.parts]
        self.sizes = {m.name: m.sizes for m in self.members}

    def generate(self, indir):
        for m in self.members:
            os.makedirs(os.path.join(indir, m.name))
            m.generate(os.path.join(indir, m.name))

    def cycle(self, indir):
        ops = []
        for m in self.members:
            os.makedirs(m.workdir, exist_ok=True)
            ops += m.cycle(os.path.join(indir, m.name))
        return ops

    def named_metrics(self, op_seconds):
        return {k: v for m in self.members for k, v in m.named_metrics(op_seconds).items()}


class FitVerify(Combined):
    """Everything that estimates: the gappy fit and the rolling verification."""

    name = "fit_verify"
    parts = (FitGappy, VerifyRolling)


class ForecastIngest(Combined):
    """Everything that does not estimate: forecast ensembles and the data layer."""

    name = "forecast_ingest"
    parts = (ForecastEnsemble, IngestYear)


WORKLOADS = {w.name: w for w in (FitVerify, ForecastIngest)}
