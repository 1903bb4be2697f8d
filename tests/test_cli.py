import csv
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import dataset_from_rows, dataset_rows

from precipfield import cli
from precipfield import data as dm
from precipfield import errors
from precipfield import estimation as est
from precipfield import fields as rf
from precipfield import forecasting as fc
from precipfield import transforms as tr
from precipfield import verification as vf
from precipfield.errors import ParseError, PrecipError, UsageError


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

    def test_repeated_key_exits_2(self, tmp_path, runner, caplog):
        # The last value used to win: this synth wrote 40 sites and exited 0.
        out = tmp_path / "w"
        conf = tmp_path / "run.conf"
        conf.write_text(f"seed = 1\nout = {out}\nsites = 6\ndays = 3\nsites = 40\n")
        with caplog.at_level("ERROR", logger="precipfield"):
            res = runner.invoke(cli.main, ["synth", "--config", str(conf)])
        assert res.exit_code == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{conf}:5: repeated config key 'sites'"]
        assert not out.exists()

    @pytest.mark.parametrize("command, line", [
        ("fit", "window-days = 10"),  # the flag's spelling, not the key's
        ("verify", "mode = site"),  # a key of another command
    ])
    def test_unknown_key_exits_2(self, synth_dir, tmp_path, runner, command, line):
        # Unknown keys used to be ignored: this fit trained on the default 30
        # days and exited 0.
        out = tmp_path / "out"
        conf = tmp_path / "run.conf"
        conf.write_text(f"dataset = {synth_dir / 'dataset.csv'}\nout = {out}\n{line}\n")
        args = {"fit": ["--date", "2004-01-16"],
                "verify": ["-M", "5", "--dates", "1", "--seed", "0"]}[command]
        res = runner.invoke(cli.main, [command, "--config", str(conf), *args])
        assert res.exit_code == 2
        assert f"{conf}: unknown config key '{line.split()[0]}'" in res.output
        assert not out.exists()


class TestSynth:
    def test_outputs_reload(self, synth_dir):
        ds = dm.load_dataset(synth_dir / "dataset.csv")
        assert len(ds) == 12 * 16
        truth = (synth_dir / "truth.txt").read_text()
        assert "rho_km" in truth and "gamma1" in truth

    def test_truth_file_reads_as_the_spec_model(self, synth_dir):
        model = est.FittedModel.from_text((synth_dir / "truth.txt").read_text())
        spec = dm.SynthSpec()
        assert (model.occurrence, model.rho.range_km, model.amount, model.r.range_km) == (
            tr.OccurrenceTrendParams(*spec.gamma), spec.rho_km,
            tr.GammaCoeffs(*spec.eta, *spec.nu), spec.r_km)
        assert model.diagnostics == {}

    def test_truth_file_forecasts(self, synth_dir, tmp_path, runner):
        ds = dm.load_dataset(synth_dir / "dataset.csv")
        res = run(runner, ["forecast", "--model", str(synth_dir / "truth.txt"),
                           "--dataset", str(synth_dir / "dataset.csv"),
                           "--date", ds.dates[-1].isoformat(), "--members", "3",
                           "--seed", "0", "--out", str(tmp_path / "ens.csv")])
        assert res.exit_code == 0
        assert (tmp_path / "ens.csv").exists()

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


ERROR_CLASSES = sorted((c for c in vars(errors).values()
                        if isinstance(c, type) and issubclass(c, PrecipError)),
                       key=lambda c: c.__name__)
# Data and fit errors exit 3 and numerical failures 4; every other error 2.
EXIT_3 = {"DataError", "ParseError", "ValidationError", "NoTrainingData", "NotFound",
          "InsufficientData", "DegenerateOccurrence", "SeparationDetected",
          "RangeUnidentifiable"}
EXIT_4 = {"NumericalError", "EmbeddingFailure"}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_exit_code_of_each_error_class(tmp_path, runner, monkeypatch, caplog, cls):
    def fail(path):
        raise cls("boom")

    monkeypatch.setattr(dm, "load_dataset", fail)
    with caplog.at_level("ERROR", logger="precipfield"):
        res = runner.invoke(cli.main, ["fit", "--dataset", "d.csv", "--date", "2004-01-02",
                                       "--out", str(tmp_path / "m.txt")])
    expected = 3 if cls.__name__ in EXIT_3 else 4 if cls.__name__ in EXIT_4 else 2
    assert cls.exit_code == res.exit_code == expected
    assert caplog.records[-1].getMessage() == "boom"


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

    def test_range_at_search_bound_warns(self, bound_world, tmp_path, runner, caplog):
        # fit used to write this model, with diag.r_at_bound = True, without
        # a word, while verify and sweep warned about the same fit.
        ds, path = bound_world
        out = tmp_path / "model.txt"
        date = ds.dates[-2]
        with caplog.at_level("WARNING", logger="precipfield"):
            res = run(runner, ["fit", "--dataset", str(path), "--date", date.isoformat(),
                               "-M", "10", "--out", str(out)])
        assert res.exit_code == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        model = est.fit_model(est.make_window(dm.load_dataset(path), date, 10))
        assert model.diagnostics["r_at_bound"]
        assert warnings == [f"{date} M=10: r_km = {model.r.range_km!r} at the search bound "
                            f"{est.RANGE_SEARCH_KM} km; using it anyway"]
        # The warning changes nothing in the model file.
        assert out.read_text(encoding="utf-8") == model.to_text()

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

    def test_huge_extent_keeps_stderr_to_cli_lines(self, tmp_path):
        # Distances this long overflow to infinity, whose correlation is
        # exactly 0. numpy's overflow warning used to reach stderr in both
        # commands, with synth exiting 0.
        res = run_fresh("synth", "--seed", 1, "--sites", 6, "--days", 20,
                        "--extent-km", "1e200", "--out", tmp_path)
        assert res.returncode == 0
        assert res.stderr.splitlines() == [f"INFO wrote 120 records to {tmp_path}"]
        res = run_fresh("fit", "--dataset", tmp_path / "dataset.csv", "--date", "2004-01-20",
                        "-M", 10, "--out", tmp_path / "model.txt")
        assert res.returncode == 3
        assert res.stderr.splitlines() == [
            "ERROR stage occurrence_range: no same-day site pair is closer than 100 km"]


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


OVERSIZED_FIELD = "x" * 200_000  # over the csv module's 131,072-character field limit
UNREADABLE = {
    "dataset oversized": (",".join(dm.CSV_HEADER) + "\na,0,0,2004-01-01,1,2\n"
                          + OVERSIZED_FIELD + ",0,0,2004-01-02,1,2\n").encode(),
    "grid oversized": ("row,col,value_hundredths_inch\n0,0,1\n0,1," + OVERSIZED_FIELD
                       + "\n").encode(),
    "dataset binary": bytes(range(256)) * 4,
    "grid binary": bytes(range(256)) * 4,
}


@pytest.mark.parametrize("case, message", [
    ("dataset oversized", r"input\.csv:3: field larger than field limit"),
    ("grid oversized", r"input\.csv:3: field larger than field limit"),
    ("dataset binary", r"input\.csv: not UTF-8 text"),
    ("grid binary", r"input\.csv: not UTF-8 text"),
])
def test_unreadable_input_exits_3(tmp_path, runner, caplog, case, message):
    # Both used to end in a traceback (csv.Error, exit 1) or a message that
    # did not name the file (UnicodeDecodeError).
    path = tmp_path / "input.csv"
    path.write_bytes(UNREADABLE[case])
    model_path = tmp_path / "model.txt"
    model_path.write_text(toy_model_text())
    if case.startswith("dataset"):
        args = ["fit", "--dataset", str(path), "--date", "2004-01-02",
                "--out", str(tmp_path / "m.txt")]
    else:
        args = ["forecast", "--model", str(model_path), "--mode", "grid",
                "--grid-forecast", str(path), "--grid-nx", "2", "--grid-ny", "2",
                "--seed", "0", "--out", str(tmp_path / "members")]
    with caplog.at_level("ERROR", logger="precipfield"):
        res = runner.invoke(cli.main, args)
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert re.search(message, errors[0])


@pytest.mark.parametrize("command", ["forecast", "fit"])
def test_not_utf8_model_or_config_exits_3(synth_dir, tmp_path, runner, caplog, command):
    # Both used to exit 3 with a message that did not name the file.
    path = tmp_path / "binary.txt"
    path.write_bytes(UNREADABLE["dataset binary"])
    args = {
        "forecast": ["forecast", "--model", str(path), "--dataset",
                     str(synth_dir / "dataset.csv"), "--date", "2004-01-16",
                     "--seed", "0", "--out", str(tmp_path / "e.csv")],
        "fit": ["fit", "--config", str(path)],
    }[command]
    with caplog.at_level("ERROR", logger="precipfield"):
        res = runner.invoke(cli.main, args)
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{path}: not UTF-8 text (invalid start byte)"]


def full_grid_rows(ny, nx, value):
    return [[iy, ix, value] for iy in range(ny) for ix in range(nx)]


def write_grid_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value_hundredths_inch"])
        writer.writerows(rows)
    return path


def fresh_interpreter_env():
    """The environment for a new interpreter that imports this package's
    source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_fresh(*args):
    """The CLI run in a new interpreter, whose stderr shows what a Python
    warning would print."""
    return subprocess.run([sys.executable, "-m", "precipfield.cli", *map(str, args)],
                          capture_output=True, text=True, env=fresh_interpreter_env())


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


@pytest.mark.parametrize("M", [6, 15])
def test_date_step_model_is_the_fit_command_model(synth_dir, tmp_path, runner, M):
    # The per-date refit of verify and sweep fits what fit --date D -M M
    # writes, byte for byte.
    dataset = synth_dir / "dataset.csv"
    date = dm.load_dataset(dataset).dates[-1]
    model_path = tmp_path / "model.txt"
    res = run(runner, ["fit", "--dataset", str(dataset), "--date", date.isoformat(),
                       "-M", str(M), "--out", str(model_path)])
    assert res.exit_code == 0
    step = vf.date_step(dm.load_dataset(dataset), date, M, lambda model, sites, fcst: None)
    assert step[0].to_text() == model_path.read_text(encoding="utf-8")


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

    def test_areal_site_ids_skip_empty_tokens(self, fitted, tmp_path, runner):
        # "s000," used to exit 2 naming an empty id as absent.
        dataset, date, model = fitted
        blobs = []
        for name, ids in (("one.csv", "s000"), ("trailing.csv", "s000,"),
                          ("blanks.csv", ",s000, ,")):
            out = tmp_path / name
            res = run(runner, ["forecast", "--model", str(model), "--dataset", str(dataset),
                               "--date", date.isoformat(), "--mode", "areal",
                               "--members", "50", "--seed", "1", "--site-ids", ids,
                               "--out", str(out)])
            assert res.exit_code == 0
            blobs.append(out.read_bytes())
        assert blobs[1] == blobs[0] and blobs[2] == blobs[0]

    @pytest.mark.parametrize("ids", ["", ",", " , "])
    def test_areal_site_ids_naming_nothing_exit_2(self, fitted, tmp_path, runner, ids):
        # An empty --site-ids used to forecast every site, with exit 0.
        dataset, date, model = fitted
        out = tmp_path / "areal.csv"
        res = runner.invoke(cli.main, [
            "forecast", "--model", str(model), "--dataset", str(dataset),
            "--date", date.isoformat(), "--mode", "areal", "--seed", "1",
            "--site-ids", ids, "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

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

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "nan"])
    def test_bad_fallback_mean_exits_2(self, synth_dir, tmp_path, runner, caplog, value):
        # At eta0 = -5 every site's implied mean is nonpositive, so each takes
        # the fallback mean. "abc" used to end in a numpy traceback, and "0"
        # in a divide-by-zero warning before a misleading Gamma-shape error.
        model_path = tmp_path / "model.txt"
        model_path.write_text(toy_model_text().replace("eta0 = 1.5", "eta0 = -5")
                              + f"diag.min_training_mean = {value}\n")
        ds = dm.load_dataset(synth_dir / "dataset.csv")
        out = tmp_path / "ens.csv"
        with caplog.at_level("ERROR", logger="precipfield"):
            res = run(runner, ["forecast", "--model", str(model_path),
                               "--dataset", str(synth_dir / "dataset.csv"),
                               "--date", ds.dates[-1].isoformat(), "--members", "3",
                               "--seed", "0", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()
        assert "'diag.min_training_mean'" in caplog.records[-1].getMessage()

    @pytest.mark.parametrize("extra, key", [
        ("rho_km = 3000\n", "'rho_km'"),  # used to forecast at 3000 km
        ("foo = 7\n", "'foo'"),  # used to be ignored
        ("diag.n_wet_records = 3\ndiag.n_wet_records = 4\n", "'diag.n_wet_records'"),
    ], ids=["repeated", "unknown", "repeated diagnostic"])
    def test_repeated_or_unknown_model_key_exits_2(self, synth_dir, tmp_path, runner, caplog,
                                                   extra, key):
        model_path = tmp_path / "model.txt"
        model_path.write_text(toy_model_text() + extra)
        ds = dm.load_dataset(synth_dir / "dataset.csv")
        out = tmp_path / "ens.csv"
        with caplog.at_level("ERROR", logger="precipfield"):
            res = run(runner, ["forecast", "--model", str(model_path),
                               "--dataset", str(synth_dir / "dataset.csv"),
                               "--date", ds.dates[-1].isoformat(), "--members", "3",
                               "--seed", "0", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()
        assert key in caplog.records[-1].getMessage()

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

    @pytest.mark.parametrize("mode", ["site", "areal", "grid"])
    def test_fallback_sites_warned_once(self, synth_dir, tmp_path, runner, caplog, mode):
        # At eta0 = -1 the implied Gamma mean is nonpositive wherever the
        # forecast is below about 1.95; those sites (grid cells) take the
        # fallback mean, which used to go unreported.
        model_path = tmp_path / "model.txt"
        model_path.write_text(toy_model_text().replace("eta0 = 1.5", "eta0 = -1.0")
                              + "diag.min_training_mean = 0.5\n")
        ds = dm.load_dataset(synth_dir / "dataset.csv")
        date = ds.dates[-1]
        sites, fcst, _ = dm.day_arrays(ds, date)
        low = [s.id for s, f in zip(sites, fcst) if -1.0 + 0.8 * np.cbrt(f) + 0.4 * (f == 0) <= 0]
        assert 0 < len(low) < len(sites)
        out = tmp_path / "out"
        if mode == "grid":
            grid_csv = write_grid_csv(tmp_path / "g.csv", [
                [iy, ix, 0.0 if (iy + ix) % 3 == 0 else 8.0]
                for iy in range(4) for ix in range(4)])
            args = ["--mode", "grid", "--grid-forecast", str(grid_csv), "--grid-cell-km", "10",
                    "--grid-nx", "4", "--grid-ny", "4"]
            where = "6 grid cells"
        else:
            args = ["--mode", mode, "--dataset", str(synth_dir / "dataset.csv"),
                    "--date", date.isoformat()]
            if mode == "areal":  # one low site and one other
                low = low[:1]
                other = next(s.id for s in sites if s.id not in low)
                args += ["--site-ids", f"{low[0]},{other}"]
            where = "sites " + ", ".join(low)
        with caplog.at_level("INFO", logger="precipfield"):
            res = run(runner, ["forecast", "--model", str(model_path), "--members", "3",
                               "--seed", "0", "--out", str(out), *args])
        assert res.exit_code == 0 and out.exists()
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"implied Gamma mean not positive at {where}; forecast with the "
                            "fallback mean diag.min_training_mean"]

    def test_model_without_fallback_mean_exits_2(self, synth_dir, tmp_path, runner, caplog):
        # truth.txt has no diag.min_training_mean. At eta0 = -1 it used to
        # forecast with a hidden fallback mean of 0.1 and exit 0, warning
        # about a key the file does not have.
        model_path = tmp_path / "truth.txt"
        model_path.write_text((synth_dir / "truth.txt").read_text()
                              .replace("eta0 = 1.5", "eta0 = -1"))
        ds = dm.load_dataset(synth_dir / "dataset.csv")
        out = tmp_path / "ens.csv"
        with caplog.at_level("INFO", logger="precipfield"):
            res = run(runner, ["forecast", "--model", str(model_path),
                               "--dataset", str(synth_dir / "dataset.csv"),
                               "--date", ds.dates[-1].isoformat(), "--members", "3",
                               "--seed", "0", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()
        assert [r.levelname for r in caplog.records] == ["ERROR"]
        assert caplog.records[0].getMessage().startswith("implied mean ")

    @pytest.mark.parametrize("cell_km", ["1e200", "1e308"])
    def test_huge_grid_cell_keeps_stderr_to_cli_lines(self, tmp_path, cell_km):
        # Lags this long overflow to infinity, whose correlation is exactly
        # 0. numpy's overflow warning used to reach stderr here, with exit 0.
        model_path = tmp_path / "model.txt"
        model_path.write_text(toy_model_text())
        grid_csv = write_grid_csv(tmp_path / "g.csv", full_grid_rows(3, 3, 8.0))
        res = run_fresh("forecast", "--model", model_path, "--mode", "grid",
                        "--grid-forecast", grid_csv, "--grid-cell-km", cell_km,
                        "--grid-nx", 3, "--grid-ny", 3, "--members", 2, "--seed", 0,
                        "--out", tmp_path / "members")
        assert res.returncode == 0
        assert res.stderr.splitlines() == [f"INFO wrote 2 grid members to {tmp_path / 'members'}"]

    def test_colocated_sites_warn_in_one_cli_line(self, tmp_path):
        # Python's DegenerateMatrixWarning, with its source line, used to
        # reach stderr here, with exit 0.
        ds = dm.synth_generate(dm.SynthSpec(n_sites=6, n_days=20, seed=1))
        x, y = ds.site_xy[0]
        rows = [(s, x, y, *rest) if s == "s001" else (s, sx, sy, *rest)
                for s, sx, sy, *rest in dataset_rows(ds)]
        dm.save_dataset(dataset_from_rows(rows), tmp_path / "d.csv")
        (tmp_path / "model.txt").write_text(toy_model_text())
        out = tmp_path / "site.csv"
        res = run_fresh("forecast", "--model", tmp_path / "model.txt", "--dataset",
                        tmp_path / "d.csv", "--date", ds.dates[-1], "--seed", 0, "--out", out)
        assert res.returncode == 0
        assert res.stderr.splitlines() == [
            "WARNING co-located sites s000, s001: the correlation matrix is singular",
            f"INFO wrote 19 site members to {out}"]

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
        # Both used to pass or fail by indexing: a 2-field row exited 3 with
        # "list index out of range", and a 4-field row was read silently.
        ("2 fields", full_grid_rows(3, 3, 8.0)[:4] + [[1, 1]]
         + full_grid_rows(3, 3, 8.0)[5:], ":6: expected 3 fields"),
        ("4 fields", full_grid_rows(3, 3, 8.0)[:4] + [[1, 1, 8.0, 2.0]]
         + full_grid_rows(3, 3, 8.0)[5:], ":6: expected 3 fields"),
    ])
    def test_bad_grid_csv_exits_3_with_line(self, case, rows, line, tmp_path, runner, caplog):
        model_path = tmp_path / "model.txt"
        model_path.write_text(toy_model_text())
        grid_csv = write_grid_csv(tmp_path / "g.csv", rows)
        with pytest.raises(ParseError, match=line):
            dm.load_grid_field(grid_csv, rf.GridSpec(0.0, 0.0, 10.0, 3, 3))
        with caplog.at_level("ERROR", logger="precipfield"):
            res = runner.invoke(cli.main, [
                "forecast", "--model", str(model_path), "--mode", "grid",
                "--grid-forecast", str(grid_csv), "--grid-cell-km", "10",
                "--grid-nx", "3", "--grid-ny", "3", "--members", "2",
                "--seed", "0", "--out", str(tmp_path / "members"),
            ])
        assert res.exit_code == 3, case
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert re.search(f"g\\.csv{line}", errors[0])

    @pytest.mark.parametrize("blank_at", [9, 5])  # after the last row, between rows
    def test_grid_csv_blank_line_skipped(self, tmp_path, blank_at):
        # A blank line used to fail as "list index out of range" (exit 3).
        grid = rf.GridSpec(0.0, 0.0, 10.0, 3, 3)
        rows = [[iy, ix, 2.0 * iy + ix] for iy, ix, _ in full_grid_rows(3, 3, 0.0)]
        plain = write_grid_csv(tmp_path / "plain.csv", rows)
        lines = plain.read_text().splitlines(keepends=True)
        blank = tmp_path / "blank.csv"
        blank.write_text("".join(lines[:blank_at + 1] + ["\n"] + lines[blank_at + 1:]))
        np.testing.assert_array_equal(dm.load_grid_field(blank, grid),
                                      dm.load_grid_field(plain, grid))

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

    def test_site_id_with_carriage_return_reads_back_whole(self, tmp_path, runner):
        # The report's own CSV writer left such an id unquoted, so the row
        # read back split in two at the carriage return.
        ds = dm.synth_generate(dm.SynthSpec(n_sites=6, n_days=12, seed=1))
        rows = [("s\r000" if r[0] == "s000" else r[0], *r[1:]) for r in dataset_rows(ds)]
        path = tmp_path / "cr.csv"
        dm.save_dataset(dataset_from_rows(rows), path)
        out = tmp_path / "rep"
        res = run(runner, ["verify", "--dataset", str(path), "-M", "5", "--members", "10",
                           "--dates", "2", "--seed", "1", "--out", str(out)])
        assert res.exit_code == 0
        with open(out / "scores.csv", newline="", encoding="utf-8") as fh:
            scores = list(csv.reader(fh))
        assert len(scores) == 1 + 2 * 6 * 4
        assert all(len(row) == 6 for row in scores)
        assert sum(row[2] == "s\r000" for row in scores) == 2 * 4

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

    def test_scores_every_date_with_a_full_window(self, synth_dir, tmp_path, runner):
        # Dates before the 13th of 16 used to be fitted on windows shorter
        # than -M, down to one day for the second date.
        dataset = synth_dir / "dataset.csv"
        out = tmp_path / "rep"
        res = run(runner, ["verify", "--dataset", str(dataset), "-M", "12", "--members", "5",
                           "--mst-members", "3", "--seed", "0", "--out", str(out)])
        assert res.exit_code == 0
        with open(out / "scores.csv", newline="", encoding="utf-8") as fh:
            scored = sorted({row["date"] for row in csv.DictReader(fh)})
        assert scored == [d.isoformat() for d in dm.load_dataset(dataset).dates[12:]]

    def test_verify_and_sweep_score_the_same_dates(self, synth_dir, tmp_path, runner,
                                                    monkeypatch):
        fitted, date_step = [], vf.date_step

        def spy(dataset, valid_date, M, forecast):
            fitted.append((valid_date, M))
            return date_step(dataset, valid_date, M, forecast)

        monkeypatch.setattr(vf, "date_step", spy)
        dataset = str(synth_dir / "dataset.csv")
        assert run(runner, ["verify", "--dataset", dataset, "-M", "12", "--members", "5",
                            "--mst-members", "3", "--dates", "3", "--seed", "0",
                            "--out", str(tmp_path / "rep")]).exit_code == 0
        verified, fitted[:] = list(fitted), []
        assert run(runner, ["sweep", "--dataset", dataset, "--window-days-list", "12",
                            "--dates", "3", "--members", "5", "--seed", "0",
                            "--out", str(tmp_path / "s.csv")]).exit_code == 0
        assert fitted == verified
        assert [d for d, _ in verified] == dm.load_dataset(dataset).dates[-3:]

    def test_one_forecast_per_verified_date(self, synth_dir, tmp_path, runner, monkeypatch):
        # Both ensembles and the scores of a date come from one SiteForecast.
        # The two ensembles and the scoring each computed the implied
        # parameters, 9 times for these 3 dates.
        calls, two_stage_params = [], fc.two_stage_params

        def spy(model, fcst_accum):
            calls.append(len(fcst_accum))
            return two_stage_params(model, fcst_accum)

        monkeypatch.setattr(fc, "two_stage_params", spy)
        res = run(runner, ["verify", "--dataset", str(synth_dir / "dataset.csv"), "-M", "10",
                           "--members", "15", "--mst-members", "9", "--dates", "3",
                           "--seed", "0", "--out", str(tmp_path / "rep")])
        assert res.exit_code == 0
        assert calls == [12, 12, 12]

    @pytest.mark.parametrize("args", [["verify", "-M", "5"],
                                      ["sweep", "--window-days-list", "2,5"]])
    def test_no_full_window_exits_3_naming_m(self, tmp_path, runner, caplog, args):
        path = tmp_path / "five_days.csv"
        dm.save_dataset(dm.synth_generate(dm.SynthSpec(n_sites=4, n_days=5, seed=0)), path)
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="precipfield"):
            res = runner.invoke(cli.main, [args[0], "--dataset", str(path), *args[1:],
                                           "--seed", "0", "--out", str(out)])
        assert res.exit_code == 3
        assert caplog.records[-1].getMessage() == "not enough history for M=5"
        assert not out.exists()

    def test_skipped_date_warns_with_stage_and_error(self, tmp_path, runner, caplog):
        ds = dm.synth_generate(dm.SynthSpec(n_sites=4, n_days=2, seed=0))
        first = ds.dates[0]
        dry = [(*r[:4], 0.0, r[5]) if r[3] == first else r for r in dataset_rows(ds)]
        path = tmp_path / "dry_start.csv"
        dm.save_dataset(dataset_from_rows(dry), path)
        with caplog.at_level("WARNING", logger="precipfield"):
            res = runner.invoke(cli.main, [
                "verify", "--dataset", str(path), "-M", "1", "--seed", "0",
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
            assert "r_km = 1.0 at the search bound" in message and "rho_km" not in message


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

    @pytest.mark.parametrize("windows", ["", ",", " , "])
    def test_window_list_naming_nothing_exits_2(self, synth_dir, tmp_path, runner, windows):
        out = tmp_path / "s.csv"
        res = runner.invoke(cli.main, [
            "sweep", "--dataset", str(synth_dir / "dataset.csv"),
            "--window-days-list", windows, "--seed", "0", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

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


FORECAST_OPTIONS = ["--model", "{model}", "--dataset", "{dataset}", "--date", "{date}",
                    "--members", "6", "--seed", "5", "--out", "{out}",
                    "--site-ids", "s000,s002,s005", "--grid-forecast", "{grid}",
                    "--grid-x0", "3", "--grid-y0", "-2", "--grid-cell-km", "20",
                    "--grid-nx", "3", "--grid-ny", "2"]
# Each command with every one of its options, as long flags.
EVERY_OPTION = {
    "synth": ["synth", "--seed", "4", "--out", "{out}", "--sites", "5", "--days", "6",
              "--extent-km", "120", "--wet-bias-offset", "0.3"],
    "fit": ["fit", "--dataset", "{dataset}", "--date", "{date}", "--window-days", "12",
            "--seed", "3", "--out", "{out}"],
    **{f"forecast {mode}": ["forecast", "--mode", mode, *FORECAST_OPTIONS]
       for mode in ("site", "areal", "grid")},
    "verify": ["verify", "--dataset", "{dataset}", "--window-days", "8", "--members", "6",
               "--mst-members", "5", "--dates", "1", "--seed", "2", "--out", "{out}"],
    "sweep": ["sweep", "--dataset", "{dataset}", "--window-days-list", "5,7",
              "--dates", "1", "--members", "5", "--seed", "2", "--out", "{out}"],
}


def output_bytes(out):
    """A file's bytes, or each file's bytes under a directory by name."""
    if out.is_file():
        return out.read_bytes()
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))}


@pytest.mark.parametrize("case", sorted(EVERY_OPTION))
def test_config_file_matches_flags(fitted, tmp_path, runner, case):
    # A config key is the long flag name with '-' as '_', for every option.
    dataset, date, model = fitted
    grid = write_grid_csv(tmp_path / "grid.csv", full_grid_rows(2, 3, 8.0))
    command, *args = EVERY_OPTION[case]
    keys = [flag[2:].replace("-", "_") for flag in args[::2]]
    assert sorted(keys) == sorted(p.name for p in cli.main.commands[command].params
                                  if p.name != "config")
    outputs = []
    for how in ("flags", "config"):
        out = tmp_path / how
        if command == "synth":
            out.mkdir()
        values = [arg.format(dataset=dataset, date=date.isoformat(), model=model,
                             grid=grid, out=out) for arg in args]
        if how == "flags":
            res = run(runner, [command, *values])
        else:
            conf = tmp_path / "run.conf"
            conf.write_text("".join(f"{key} = {val}\n" for key, val in zip(keys, values[1::2])))
            res = run(runner, [command, "--config", str(conf)])
        assert res.exit_code == 0
        outputs.append(output_bytes(out))
    assert outputs[0] == outputs[1]


# Runs every command in-process in a fresh interpreter (the test process has
# long since imported all of SciPy) and prints which of the SciPy submodules
# that the package never imports on a command's path are loaded after each.
STARTUP_PROBE = """
import sys
from precipfield import cli

def run(*args):
    assert cli.main.main(args=list(args), standalone_mode=False) in (None, 0), args
    loaded = [m for m in ("scipy.optimize", "scipy.linalg", "scipy.integrate")
              if m in sys.modules]
    print(args[0], *loaded)

out, model, grid = sys.argv[1:]
print("import")
run("synth", "--seed", "3", "--out", out, "--sites", "12", "--days", "16")
dataset = out + "/dataset.csv"
common = ["--model", model, "--seed", "0", "--members", "3"]
run("forecast", *common, "--dataset", dataset, "--date", "2004-01-16",
    "--out", out + "/site.csv")
run("forecast", *common, "--dataset", dataset, "--date", "2004-01-16", "--mode", "areal",
    "--site-ids", "s000,s001", "--out", out + "/areal.csv")
run("forecast", *common, "--mode", "grid", "--grid-forecast", grid, "--grid-cell-km", "10",
    "--grid-nx", "3", "--grid-ny", "3", "--out", out + "/grid")
run("fit", "--dataset", dataset, "--date", "2004-01-16", "-M", "15",
    "--out", out + "/model.txt")
run("verify", "--dataset", dataset, "-M", "10", "--members", "5", "--mst-members", "3",
    "--dates", "2", "--seed", "0", "--out", out + "/report")
run("sweep", "--dataset", dataset, "--window-days-list", "6,10", "--dates", "2",
    "--members", "5", "--seed", "0", "--out", out + "/sweep.csv")
"""


def test_importing_the_cli_loads_no_multiprocessing():
    # A forecast imports it when it first forks workers, and verify never
    # does at its ensemble sizes.
    probe = ("import sys; import precipfield.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=fresh_interpreter_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_no_command_loads_scipy_optimize(tmp_path):
    # Loading scipy.optimize alone costs a process about 0.27 s and 22 MB of
    # RSS, and no command needs it or the other two.
    model_path = tmp_path / "model.txt"
    model_path.write_text(toy_model_text())
    grid_csv = write_grid_csv(tmp_path / "g.csv", full_grid_rows(3, 3, 8.0))
    out = tmp_path / "world"
    out.mkdir()
    res = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(out), str(model_path),
                          str(grid_csv)], capture_output=True, text=True,
                         env=fresh_interpreter_env())
    assert res.returncode == 0, res.stderr
    lines = [line.split() for line in res.stdout.splitlines()]
    assert [name for name, *_ in lines] == ["import", "synth", *["forecast"] * 3,
                                            "fit", "verify", "sweep"]
    assert all(loaded == [] for _, *loaded in lines), lines
    imports_optimize = re.compile(r"scipy\.optimize|from scipy import [^\n]*\boptimize\b")
    assert not [path.name for path in Path(cli.__file__).parent.glob("*.py")
                if imports_optimize.search(path.read_text(encoding="utf-8"))]


def test_forecast_bytes_do_not_depend_on_blas_threads(tmp_path, runner):
    # At 150 sites OpenBLAS's blocked Cholesky rounds differently on one and
    # on two threads: without the CLI's one-thread pin, 4,347 of these 45,000
    # rows differ.
    world = tmp_path / "world"
    world.mkdir()
    assert run(runner, ["synth", "--seed", "5", "--sites", "150", "--days", "60",
                        "--out", str(world)]).exit_code == 0
    dataset, model = world / "dataset.csv", world / "model.txt"
    assert run(runner, ["fit", "--dataset", str(dataset), "--date", "2004-02-29",
                        "-M", "30", "--out", str(model)]).exit_code == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        res = subprocess.run(
            [sys.executable, "-m", "precipfield.cli", "forecast", "--model", str(model),
             "--dataset", str(dataset), "--date", "2004-02-29", "--members", "300",
             "--seed", "0", "--out", str(out)], capture_output=True, text=True,
            env={**fresh_interpreter_env(), "OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    assert outputs[0].count(b"\n") == 45_001
    assert outputs[0] == outputs[1]


def test_readme_quickstart_runs(tmp_path, runner, monkeypatch):
    # The README's CLI example block, run as written. Its synth used to exit
    # 2 (no world/ directory) and its forecasts 3 (a date that no synthetic
    # world holds).
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S)
                 if "precipfield synth" in b)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip() and not line.startswith("#")]
    assert [words[:2] for words in commands] == [
        ["mkdir", "-p"], *[["precipfield", name] for name in
                           ("synth", "fit", "forecast", "forecast", "forecast", "verify",
                            "sweep")]]
    monkeypatch.chdir(tmp_path)
    # The gridded forecast the block asks the reader for.
    write_grid_csv("grid_fcst.csv", [[iy, ix, 4.0 * ((iy + ix) % 3)]
                                     for iy in range(20) for ix in range(20)])
    for program, *args in commands:
        if program == "mkdir":
            os.makedirs(args[-1], exist_ok=True)
        else:
            assert run(runner, args).exit_code == 0, args
