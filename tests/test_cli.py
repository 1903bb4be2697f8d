import csv

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import dataset_from_rows, dataset_rows

from precipfield import cli
from precipfield import data as dm
from precipfield import estimation as est
from precipfield import fields as rf
from precipfield import transforms as tr
from precipfield.errors import ParseError, UsageError


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args):
    return runner.invoke(cli.main, args, catch_exceptions=False)


@pytest.fixture()
def synth_dir(tmp_path, runner):
    out = tmp_path / "world"
    out.mkdir()
    res = run(runner, ["synth", "--seed", "3", "--out", str(out),
                       "--sites", "12", "--days", "16"])
    assert res.exit_code == 0
    return out


@pytest.fixture()
def bound_world(tmp_path):
    """A small world on which the amount range stops at the 1 km bound."""
    ds = dm.synth_generate(dm.SynthSpec(n_sites=12, n_days=18, seed=2,
                                        wet_bias_offset=0.5))
    path = tmp_path / "bound.csv"
    dm.save_dataset(ds, path)
    return ds, path


class TestConfig:
    def test_key_value_with_comments(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# comment\nseed = 7\n\nout = /tmp/x  # trailing\n")
        conf = cli.read_config(path)
        assert conf == {"seed": "7", "out": "/tmp/x"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed 7\n")
        with pytest.raises(UsageError, match=":1"):
            cli.read_config(path)

    def test_flags_win_over_config(self, tmp_path, runner):
        out = tmp_path / "w"
        out.mkdir()
        conf = tmp_path / "run.conf"
        conf.write_text(f"seed = 1\nout = {out}\nsites = 4\ndays = 9\n")
        res = run(runner, ["synth", "--config", str(conf), "--days", "3"])
        assert res.exit_code == 0
        ds = dm.load_dataset(out / "dataset.csv")
        assert len(ds.dates) == 3
        assert len(ds.sites) == 4


class TestSynth:
    def test_outputs_reload(self, synth_dir):
        ds = dm.load_dataset(synth_dir / "dataset.csv")
        assert len(ds) == 12 * 16
        truth = (synth_dir / "truth.txt").read_text()
        assert "rho_km" in truth and "gamma1" in truth

    def test_byte_identical_rerun(self, tmp_path, runner):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            res = run(runner, ["synth", "--seed", "5", "--out", str(out),
                               "--sites", "6", "--days", "4"])
            assert res.exit_code == 0
            outs.append((out / "dataset.csv").read_bytes()
                        + (out / "truth.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_outdir(self, tmp_path, runner):
        res = runner.invoke(cli.main, ["synth", "--seed", "1", "--out",
                                       str(tmp_path / "nope")])
        assert res.exit_code == 2

    def test_missing_seed(self, tmp_path, runner):
        res = runner.invoke(cli.main, ["synth", "--out", str(tmp_path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--sites", "0"), ("--sites", "-2"), ("--days", "0"), ("--extent-km", "0"),
        ("--extent-km", "-5"), ("--extent-km", "nan"), ("--extent-km", "inf"),
    ])
    def test_bad_size_or_extent_exits_2(self, tmp_path, runner, flag, value):
        # --days 0 used to write an empty dataset with exit 0; the rest ended
        # in tracebacks.
        res = runner.invoke(cli.main, ["synth", "--seed", "1", "--out", str(tmp_path),
                                       "--sites", "3", "--days", "2", flag, value])
        assert res.exit_code == 2
        assert not (tmp_path / "dataset.csv").exists()


class TestFit:
    def test_writes_loadable_model(self, synth_dir, tmp_path, runner):
        ds = dm.load_dataset(synth_dir / "dataset.csv")
        date = ds.dates[-1].isoformat()
        model_path = tmp_path / "model.txt"
        res = run(runner, ["fit", "--dataset", str(synth_dir / "dataset.csv"),
                           "--date", date, "-M", "15", "--seed", "0",
                           "--out", str(model_path)])
        assert res.exit_code == 0
        model = est.FittedModel.from_text(model_path.read_text())
        assert model.rho.range_km > 0
        assert model.r.range_km > 0

    def test_deterministic_rerun(self, synth_dir, tmp_path, runner):
        ds = dm.load_dataset(synth_dir / "dataset.csv")
        date = ds.dates[-1].isoformat()
        blobs = []
        for name in ("m1.txt", "m2.txt"):
            path = tmp_path / name
            res = run(runner, ["fit", "--dataset", str(synth_dir / "dataset.csv"),
                               "--date", date, "-M", "15", "--seed", "0",
                               "--out", str(path)])
            assert res.exit_code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_has_no_effect(self, synth_dir, tmp_path, runner):
        ds = dm.load_dataset(synth_dir / "dataset.csv")
        date = ds.dates[-1].isoformat()
        blobs = []
        for seed in (["--seed", "0"], ["--seed", "7"], []):
            path = tmp_path / f"m{len(blobs)}.txt"
            res = run(runner, ["fit", "--dataset", str(synth_dir / "dataset.csv"),
                               "--date", date, "-M", "15", *seed, "--out", str(path)])
            assert res.exit_code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_no_history_exits_3(self, synth_dir, tmp_path, runner):
        res = runner.invoke(cli.main, [
            "fit", "--dataset", str(synth_dir / "dataset.csv"),
            "--date", "2000-01-01", "--seed", "0",
            "--out", str(tmp_path / "m.txt"),
        ])
        assert res.exit_code == 3

    @pytest.mark.parametrize("window", ["0", "-2"])
    def test_nonpositive_window_exits_2(self, synth_dir, tmp_path, runner, window):
        # -M 0 used to train on all history and -M -2 to drop the oldest days.
        out = tmp_path / "m.txt"
        res = runner.invoke(cli.main, [
            "fit", "--dataset", str(synth_dir / "dataset.csv"), "--date", "2004-01-16",
            "-M", window, "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    def test_nonpositive_config_window_exits_2(self, synth_dir, tmp_path, runner):
        out = tmp_path / "m.txt"
        conf = tmp_path / "fit.conf"
        conf.write_text(f"dataset = {synth_dir / 'dataset.csv'}\ndate = 2004-01-16\n"
                        f"out = {out}\nwindow_days = 0\n")
        res = runner.invoke(cli.main, ["fit", "--config", str(conf)])
        assert res.exit_code == 2
        assert "config key 'window_days'" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_bad_date_exits_2(self, synth_dir, tmp_path, runner, where):
        # Used to end in a ValueError traceback.
        out = tmp_path / "m.txt"
        conf = tmp_path / "fit.conf"
        conf.write_text("date = 2004-13-45\n")
        args = ["--date", "2004-13-45"] if where == "flag" else ["--config", str(conf)]
        res = runner.invoke(cli.main, [
            "fit", "--dataset", str(synth_dir / "dataset.csv"), *args, "--out", str(out)])
        assert res.exit_code == 2
        assert "'2004-13-45' does not match the format" in res.output
        assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "fit", "forecast", "verify", "sweep"])
def test_negative_seed_exits_2(synth_dir, tmp_path, runner, command):
    # Used to end in a ValueError traceback from SeedSequence.
    dataset = str(synth_dir / "dataset.csv")
    args = {
        "synth": ["--out", str(tmp_path)],
        "fit": ["--dataset", dataset, "--date", "2004-01-16", "--out", str(tmp_path / "m")],
        "forecast": ["--model", str(tmp_path / "m"), "--dataset", dataset,
                     "--date", "2004-01-16", "--out", str(tmp_path / "e.csv")],
        "verify": ["--dataset", dataset, "--out", str(tmp_path / "rep")],
        "sweep": ["--dataset", dataset, "--out", str(tmp_path / "s.csv")],
    }[command]
    res = runner.invoke(cli.main, [command, *args, "--seed", "-1"])
    assert res.exit_code == 2
    assert "--seed" in res.output


def full_grid_rows(ny, nx, value):
    return [[iy, ix, value] for iy in range(ny) for ix in range(nx)]


def write_grid_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value_hundredths_inch"])
        writer.writerows(rows)
    return path


def toy_model_text(nu=(0.15, 0.05)):
    return est.FittedModel(
        occurrence=tr.OccurrenceTrendParams(0.0, 0.4, -0.4),
        rho=rf.ExpCorrelation(30.0),
        amount=tr.GammaCoeffs(1.5, 0.8, 0.4, *nu),
        r=rf.ExpCorrelation(20.0),
    ).to_text()


@pytest.fixture()
def fitted(synth_dir, tmp_path, runner):
    ds = dm.load_dataset(synth_dir / "dataset.csv")
    date = ds.dates[-1]
    model_path = tmp_path / "model.txt"
    res = run(runner, ["fit", "--dataset", str(synth_dir / "dataset.csv"),
                       "--date", date.isoformat(), "-M", "15", "--seed", "0",
                       "--out", str(model_path)])
    assert res.exit_code == 0
    return synth_dir / "dataset.csv", date, model_path


class TestForecast:
    def test_site_mode_shape(self, fitted, tmp_path, runner):
        dataset, date, model = fitted
        out = tmp_path / "ens.csv"
        res = run(runner, ["forecast", "--model", str(model), "--dataset",
                           str(dataset), "--date", date.isoformat(),
                           "--mode", "site", "--members", "7", "--seed", "1",
                           "--out", str(out)])
        assert res.exit_code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["member", "site_id", "value_hundredths_inch"]
        assert len(rows) == 1 + 7 * 12

    def test_areal_default_members(self, fitted, tmp_path, runner):
        dataset, date, model = fitted
        out = tmp_path / "areal.csv"
        res = run(runner, ["forecast", "--model", str(model), "--dataset",
                           str(dataset), "--date", date.isoformat(),
                           "--mode", "areal", "--seed", "1",
                           "--site-ids", "s000,s001,s002",
                           "--out", str(out)])
        assert res.exit_code == 0
        n_rows = sum(1 for _ in open(out)) - 1
        assert n_rows == 10_000

    def test_areal_absent_site_ids_exit_2(self, fitted, tmp_path, runner, caplog):
        dataset, date, model = fitted
        out = tmp_path / "areal.csv"
        with caplog.at_level("ERROR", logger="precipfield"):
            res = runner.invoke(cli.main, [
                "forecast", "--model", str(model), "--dataset", str(dataset),
                "--date", date.isoformat(), "--mode", "areal", "--seed", "1",
                "--site-ids", "s000,s999,nonsense", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()
        message = caplog.records[-1].getMessage()
        assert "nonsense,s999" in message and "s000" not in message

    def test_deterministic(self, fitted, tmp_path, runner):
        dataset, date, model = fitted
        blobs = []
        for name in ("e1.csv", "e2.csv"):
            out = tmp_path / name
            res = run(runner, ["forecast", "--model", str(model), "--dataset",
                               str(dataset), "--date", date.isoformat(),
                               "--members", "5", "--seed", "2",
                               "--out", str(out)])
            assert res.exit_code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_grid_mode(self, fitted, tmp_path, runner):
        _, _, model = fitted
        grid_csv = tmp_path / "fcst_grid.csv"
        with open(grid_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "value_hundredths_inch"])
            for iy in range(6):
                for ix in range(6):
                    writer.writerow([iy, ix, 8.0])
        out = tmp_path / "members"
        res = run(runner, ["forecast", "--model", str(model), "--mode", "grid",
                           "--grid-forecast", str(grid_csv),
                           "--grid-cell-km", "25", "--grid-nx", "6",
                           "--grid-ny", "6", "--members", "3", "--seed", "0",
                           "--out", str(out)])
        assert res.exit_code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["member_0000.csv", "member_0001.csv", "member_0002.csv"]

    def test_grid_embedding_failure_exits_4(self, tmp_path, runner):
        # A model whose ranges dwarf the grid extent cannot embed.
        model = est.FittedModel(
            occurrence=tr.OccurrenceTrendParams(0.0, 0.4, -0.4),
            rho=rf.ExpCorrelation(5000.0),
            amount=tr.GammaCoeffs(1.5, 0.8, 0.4, 0.15, 0.05),
            r=rf.ExpCorrelation(5000.0),
        )
        model_path = tmp_path / "model.txt"
        model_path.write_text(model.to_text())
        grid_csv = tmp_path / "fcst_grid.csv"
        with open(grid_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "value_hundredths_inch"])
            for iy in range(4):
                for ix in range(4):
                    writer.writerow([iy, ix, 8.0])
        res = runner.invoke(cli.main, [
            "forecast", "--model", str(model_path), "--mode", "grid",
            "--grid-forecast", str(grid_csv), "--grid-cell-km", "10",
            "--grid-nx", "4", "--grid-ny", "4", "--members", "2",
            "--seed", "0", "--out", str(tmp_path / "members"),
        ])
        assert res.exit_code == 4

    def test_grid_without_geometry_exits_2(self, fitted, tmp_path, runner):
        _, _, model = fitted
        grid_csv = write_grid_csv(tmp_path / "g.csv", full_grid_rows(3, 3, 8.0))
        res = runner.invoke(cli.main, [
            "forecast", "--model", str(model), "--mode", "grid",
            "--grid-forecast", str(grid_csv), "--members", "2", "--seed", "0",
            "--out", str(tmp_path / "members"),
        ])
        assert res.exit_code == 2

    @pytest.mark.parametrize("case, rows, line", [
        ("negative index", full_grid_rows(3, 3, 8.0)[:-1] + [[-1, -1, 8.0]], ":10"),
        ("index past edge", full_grid_rows(3, 3, 8.0) + [[0, 3, 8.0]], ":11"),
        ("duplicate cell", full_grid_rows(3, 3, 8.0) + [[1, 1, 4.0]], ":11"),
        ("missing cell", full_grid_rows(3, 3, 8.0)[:-1], ":10"),
        ("negative value", [[0, 0, -1.0]] + full_grid_rows(3, 3, 8.0)[1:], ":2"),
        ("nonfinite value", full_grid_rows(3, 3, 8.0)[:4] + [[1, 1, "nan"]]
         + full_grid_rows(3, 3, 8.0)[5:], ":6"),
    ])
    def test_bad_grid_csv_exits_3_with_line(self, case, rows, line, tmp_path, runner):
        model_path = tmp_path / "model.txt"
        model_path.write_text(toy_model_text())
        grid_csv = write_grid_csv(tmp_path / "g.csv", rows)
        with pytest.raises(ParseError, match=line):
            dm.load_grid_field(grid_csv, rf.GridSpec(0.0, 0.0, 10.0, 3, 3))
        res = runner.invoke(cli.main, [
            "forecast", "--model", str(model_path), "--mode", "grid",
            "--grid-forecast", str(grid_csv), "--grid-cell-km", "10",
            "--grid-nx", "3", "--grid-ny", "3", "--members", "2",
            "--seed", "0", "--out", str(tmp_path / "members"),
        ])
        assert res.exit_code == 3, case

    def test_grid_zero_variance_exits_2(self, tmp_path, runner):
        # nu0 = 0 over a zero forecast: no member may be written as NaN.
        model_path = tmp_path / "model.txt"
        model_path.write_text(toy_model_text(nu=(0.0, 0.05)))
        grid_csv = write_grid_csv(tmp_path / "g.csv", full_grid_rows(4, 4, 0.0))
        out = tmp_path / "members"
        res = runner.invoke(cli.main, [
            "forecast", "--model", str(model_path), "--mode", "grid",
            "--grid-forecast", str(grid_csv), "--grid-cell-km", "10",
            "--grid-nx", "4", "--grid-ny", "4", "--members", "2",
            "--seed", "0", "--out", str(out),
        ])
        assert res.exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize("mode, args", [
        ("site", []),
        ("areal", ["--site-ids", "s000,s001"]),
        ("grid", ["--grid-nx", "2", "--grid-ny", "2"]),
    ])
    def test_nonpositive_members_exits_2(self, fitted, tmp_path, runner, mode, args):
        # --members 0 used to write a header-only or empty ensemble.
        dataset, date, model = fitted
        grid_csv = write_grid_csv(tmp_path / "grid.csv", full_grid_rows(2, 2, 8.0))
        out = tmp_path / "ens"
        res = runner.invoke(cli.main, [
            "forecast", "--model", str(model), "--dataset", str(dataset),
            "--date", date.isoformat(), "--grid-forecast", str(grid_csv),
            "--mode", mode, *args, "--members", "0", "--seed", "1", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    def test_missing_model_exits_2(self, tmp_path, runner):
        res = runner.invoke(cli.main, [
            "forecast", "--model", str(tmp_path / "nope.txt"), "--seed", "0",
            "--out", str(tmp_path / "e.csv"),
        ])
        assert res.exit_code == 2

    def test_invalid_model_parameter_exits_2(self, fitted, tmp_path, runner):
        # A model file with a negative range used to end in a DomainError traceback.
        dataset, date, model = fitted
        bad = tmp_path / "bad_model.txt"
        bad.write_text("".join(f"rho_km = -5\n" if line.startswith("rho_km") else line
                               for line in model.read_text().splitlines(keepends=True)))
        out = tmp_path / "e.csv"
        res = runner.invoke(cli.main, [
            "forecast", "--model", str(bad), "--dataset", str(dataset),
            "--date", date.isoformat(), "--seed", "0", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()


class TestVerify:
    def test_report_files_and_point_forecast_identity(self, synth_dir,
                                                      tmp_path, runner):
        out = tmp_path / "report"
        res = run(runner, ["verify", "--dataset", str(synth_dir / "dataset.csv"),
                           "--window-days", "12", "--members", "20",
                           "--mst-members", "9", "--dates", "2", "--seed", "0",
                           "--out", str(out)])
        assert res.exit_code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"scores.csv", "summary.csv", "rank_hist.csv",
                         "pit_hist.csv", "mst_hist.csv", "reliability.csv"}
        with open(out / "summary.csv", newline="") as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        assert set(rows) >= {"climatology", "nwp", "independence", "spatial"}
        # A point forecast's CRPS is its absolute error.
        assert float(rows["nwp"]["mae"]) == pytest.approx(
            float(rows["nwp"]["crps"]), abs=1e-12
        )

    @pytest.mark.parametrize("flag, value", [
        ("-M", "0"), ("-M", "-2"), ("--members", "0"), ("--mst-members", "0"),
    ])
    def test_nonpositive_window_or_members_exits_2(self, synth_dir, tmp_path, runner,
                                                    flag, value):
        # -M 0 used to verify every date on all history, with exit 0.
        out = tmp_path / "rep"
        res = runner.invoke(cli.main, [
            "verify", "--dataset", str(synth_dir / "dataset.csv"), flag, value,
            "--dates", "1", "--seed", "0", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--dates", "0"], ["--dates", "-2"], ["config"]])
    def test_nonpositive_dates_exits_2(self, synth_dir, tmp_path, runner, args):
        # --dates 0 and --dates -2 used to verify every date but one, with exit 0.
        out = tmp_path / "rep"
        if args == ["config"]:
            conf = tmp_path / "verify.conf"
            conf.write_text("dates = 0\n")
            args = ["--config", str(conf)]
        res = runner.invoke(cli.main, [
            "verify", "--dataset", str(synth_dir / "dataset.csv"), "-M", "5", *args,
            "--seed", "0", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    def test_no_history_exits_3(self, tmp_path, runner):
        ds = dm.synth_generate(dm.SynthSpec(n_sites=4, n_days=1, seed=0))
        path = tmp_path / "one_day.csv"
        dm.save_dataset(ds, path)
        res = runner.invoke(cli.main, [
            "verify", "--dataset", str(path), "--seed", "0",
            "--out", str(tmp_path / "rep"),
        ])
        assert res.exit_code == 3


    def test_skipped_date_warns_with_stage_and_error(self, tmp_path, runner, caplog):
        ds = dm.synth_generate(dm.SynthSpec(n_sites=4, n_days=2, seed=0))
        first = ds.dates[0]
        dry = [(*r[:4], 0.0, r[5]) if r[3] == first else r for r in dataset_rows(ds)]
        path = tmp_path / "dry_start.csv"
        dm.save_dataset(dataset_from_rows(dry), path)
        with caplog.at_level("WARNING", logger="precipfield"):
            res = runner.invoke(cli.main, [
                "verify", "--dataset", str(path), "--seed", "0",
                "--out", str(tmp_path / "rep"),
            ])
        assert res.exit_code == 3
        skips = [r for r in caplog.records
                 if r.levelname == "WARNING" and "skip" in r.getMessage()]
        assert len(skips) == 1
        assert "stage fit" in skips[0].getMessage()
        assert "DegenerateOccurrence" in skips[0].getMessage()

    def test_range_at_search_bound_warns(self, bound_world, tmp_path, runner, caplog):
        ds, path = bound_world
        with caplog.at_level("WARNING", logger="precipfield"):
            res = run(runner, ["verify", "--dataset", str(path), "-M", "10",
                               "--members", "15", "--mst-members", "9",
                               "--dates", "2", "--seed", "2",
                               "--out", str(tmp_path / "rep")])
        assert res.exit_code == 0
        bound = [r.getMessage() for r in caplog.records
                 if r.levelname == "WARNING" and "search bound" in r.getMessage()]
        assert len(bound) == 2
        for date, message in zip(ds.dates[-2:], bound):
            assert message.startswith(f"{date} M=10: ")
            assert "r_km = 1.000" in message and "rho_km" not in message


class TestSweep:
    def test_table_shape(self, synth_dir, tmp_path, runner):
        out = tmp_path / "sweep.csv"
        res = run(runner, ["sweep", "--dataset", str(synth_dir / "dataset.csv"),
                           "--window-days-list", "5,8", "--dates", "2",
                           "--members", "10", "--seed", "0",
                           "--out", str(out)])
        assert res.exit_code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["M", "mean_crps", "se_crps", "n_cases", "n_skipped"]
        assert [r[0] for r in rows[1:]] == ["5", "8"]
        assert all(float(r[1]) > 0 for r in rows[1:])

    def test_range_at_search_bound_warns(self, bound_world, tmp_path, runner, caplog):
        ds, path = bound_world
        with caplog.at_level("WARNING", logger="precipfield"):
            res = run(runner, ["sweep", "--dataset", str(path),
                               "--window-days-list", "10", "--dates", "1",
                               "--members", "10", "--seed", "2",
                               "--out", str(tmp_path / "sweep.csv")])
        assert res.exit_code == 0
        bound = [r.getMessage() for r in caplog.records
                 if r.levelname == "WARNING" and "search bound" in r.getMessage()]
        assert len(bound) == 1
        assert bound[0].startswith(f"{ds.dates[-1]} M=10: ") and "r_km" in bound[0]

    def test_nonpositive_window_exits_2(self, synth_dir, tmp_path, runner):
        res = runner.invoke(cli.main, [
            "sweep", "--dataset", str(synth_dir / "dataset.csv"),
            "--window-days-list", "5,0", "--seed", "0",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert res.exit_code == 2

    @pytest.mark.parametrize("dates", ["0", "-2"])
    def test_nonpositive_dates_exits_2(self, synth_dir, tmp_path, runner, dates):
        out = tmp_path / "s.csv"
        res = runner.invoke(cli.main, [
            "sweep", "--dataset", str(synth_dir / "dataset.csv"), "--window-days-list", "5",
            "--dates", dates, "--seed", "0", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--members", "0"], ["--members", "-3"], ["config"]])
    def test_nonpositive_members_exits_2(self, synth_dir, tmp_path, runner, args):
        # --members -3 used to end in a traceback, and 0 exited only after
        # every fit had run.
        out = tmp_path / "s.csv"
        if args == ["config"]:
            conf = tmp_path / "sweep.conf"
            conf.write_text("members = 0\n")
            args = ["--config", str(conf)]
        res = runner.invoke(cli.main, [
            "sweep", "--dataset", str(synth_dir / "dataset.csv"), "--window-days-list", "5",
            "--dates", "1", *args, "--seed", "0", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    def test_insufficient_history_exits_3(self, synth_dir, tmp_path, runner):
        res = runner.invoke(cli.main, [
            "sweep", "--dataset", str(synth_dir / "dataset.csv"),
            "--window-days-list", "500", "--seed", "0",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert res.exit_code == 3
