"""The CLI's exit-code contract under random input files and numbers.

Every run exits 0, 2, 3 or 4 through ``SystemExit`` (never an uncaught
exception), and no run exits 0 with a window length, member count or synth
size below 1.
The explicit examples are inputs that once ended in a traceback.
"""

import io

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from precipfield import cli
from precipfield import data as dm
from precipfield import estimation as est

N_DAYS = 8
DATE = "2004-01-08"  # the last date of the world below

# Command: {config key: flag} for the counts it reads that must be at least 1.
COUNT_KEYS = {
    "synth": {"sites": "--sites", "days": "--days"},
    "fit": {"window_days": "-M"},
    "forecast": {"members": "--members"},
    "verify": {"window_days": "-M", "members": "--members", "mst_members": "--mst-members"},
    "sweep": {"members": "--members", "window_days_list": "--window-days-list"},
}
SYNTH = ["synth", "--seed", "1", "--out", ".", "--sites", "3", "--days", "2"]
GRID = ["forecast", "--model", "{model}", "--mode", "grid", "--grid-forecast", "{grid}",
        "--grid-nx", "2", "--grid-ny", "2", "--seed", "0", "--out", "g"]
# Each command run on a fuzzed file ``input``, the rest of its inputs valid.
FILE_COMMANDS = {
    "dataset": [
        ["fit", "--dataset", "input", "--date", DATE, "-M", "3", "--out", "m.txt"],
        ["forecast", "--model", "{model}", "--dataset", "input", "--date", DATE,
         "--members", "3", "--seed", "0", "--out", "e.csv"],
        ["verify", "--dataset", "input", "-M", "3", "--members", "4", "--mst-members", "3",
         "--dates", "1", "--seed", "0", "--out", "rep"],
    ],
    "grid": [
        [*GRID[:6], "input", *GRID[7:]],
    ],
    "model": [
        ["forecast", "--model", "input", "--dataset", "{world}", "--date", DATE,
         "--members", "3", "--seed", "0", "--out", "e.csv"],
    ],
    "config": [
        [*SYNTH, "--config", "input"],
        ["fit", "--dataset", "{world}", "--date", DATE, "--out", "m.txt", "--config", "input"],
        ["forecast", "--model", "{model}", "--dataset", "{world}", "--date", DATE,
         "--members", "3", "--seed", "0", "--out", "e.csv", "--config", "input"],
        ["verify", "--dataset", "{world}", "--members", "4", "--mst-members", "3",
         "--dates", "1", "--seed", "0", "--out", "rep", "--config", "input"],
        ["sweep", "--dataset", "{world}", "--dates", "1", "--seed", "0", "--out", "s.csv",
         "--config", "input"],
    ],
}
CONFIG_KEYS = ["seed", "date", "window_days", "members", "mst_members", "dates",
               "extent_km", "wet_bias_offset", "mode", "window_days_list", "grid_cell_km"]
CONFIG_VALUES = ["-3", "0", "1", "3", "2.5", "nan", "inf", "abc", "", "2004-01-05",
                 "3,0", "2,3", "site", "grid", "areal"]
FILE_LINES = {
    "dataset": [",".join(dm.CSV_HEADER), "a,0,0,2004-01-05,1,2", "b,9,0,2004-01-05,0,0",
                "a,0,0,2004-01-06,3,1", "a,0,0,2004-13-45,1,2", "b,1,1,2004-01-02,-1,2",
                "a,nan,0,2004-01-01,0,0", "a,0,0,2004-01-05,1"],
    "grid": ["row,col,value_hundredths_inch", "0,0,1.5", "0,1,0", "1,0,2", "1,1,8",
             "1,1,nan", "2,0,1", "0,0,-1", "x,y,z"],
    "model": ["gamma0 = 0", "gamma1 = 0.4", "gamma2 = -0.4", "rho_km = 30", "eta0 = 1.5",
              "eta1 = 0.8", "eta2 = 0.4", "nu0 = 0.15", "nu1 = 0.05", "r_km = 20",
              "rho_km = -5", "nu0 = abc", "gamma0", "diag.n_wet_records = 3"],
}
FLOATS = st.floats().map(repr)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _text(lines):
    return st.lists(st.one_of(st.sampled_from(lines), st.text(max_size=12)), max_size=6).map(
        lambda ls: "\n".join(ls).encode("utf-8"))


CONFIG_TEXT = _text([f"{key} = {val}" for key in CONFIG_KEYS for val in CONFIG_VALUES])


@st.composite
def file_cases(draw):
    kind = draw(st.sampled_from(sorted(FILE_COMMANDS)))
    args = draw(st.sampled_from(FILE_COMMANDS[kind]))
    lines = CONFIG_TEXT if kind == "config" else _text(FILE_LINES[kind])
    content = draw(st.one_of(st.binary(max_size=60), lines))
    return args, content


@st.composite
def number_cases(draw):
    command = draw(st.sampled_from(["synth", "fit", "forecast", "grid", "verify", "sweep"]))
    if command == "synth":
        return [*SYNTH[:5], "--sites", draw(ints(-3, 5)), "--days", draw(ints(-3, 5)),
                "--extent-km", draw(FLOATS)], None
    if command == "fit":
        return ["fit", "--dataset", "{world}", "--date", DATE, "-M", draw(ints(-3, 8)),
                "--out", "m.txt"], None
    if command == "forecast":
        return ["forecast", "--model", "{model}", "--dataset", "{world}", "--date", DATE,
                "--members", draw(ints(-3, 8)), "--seed", "0", "--out", "e.csv"], None
    if command == "grid":
        return [*GRID, "--grid-cell-km", draw(FLOATS), "--members", draw(ints(-3, 3))], None
    if command == "verify":
        return ["verify", "--dataset", "{world}", "-M", draw(ints(-3, 5)),
                "--members", draw(ints(-3, 5)), "--mst-members", draw(ints(-3, 4)),
                "--dates", draw(ints(-2, 2)), "--seed", "0", "--out", "rep"], None
    return ["sweep", "--dataset", "{world}",
            "--window-days-list", f"{draw(ints(-2, 4))},{draw(ints(-2, 4))}",
            "--dates", draw(ints(-2, 2)), "--members", draw(ints(-3, 5)),
            "--seed", "0", "--out", "s.csv"], None


def _counts_below_one(args, config):
    """Whether the run reads a count of COUNT_KEYS below 1, from a flag or
    from a config key that no flag overrides."""
    values = {}
    for line in io.StringIO(config, newline=None):  # the lines read_config reads
        key, sep, val = line.split("#", 1)[0].partition("=")
        if sep:
            values[key.strip()] = val.strip()
    flags = dict(zip(args, args[1:]))  # as in click, a repeated flag's last value wins
    for key, flag in COUNT_KEYS[args[0]].items():
        if flag in flags:
            values[key] = flags[flag]
    numbers = [tok for key in COUNT_KEYS[args[0]] for tok in values.get(key, "").split(",")]
    return any(tok.strip().lstrip("-").isdigit() and int(tok) < 1 for tok in numbers)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    top = tmp_path_factory.mktemp("contract")
    ds = dm.synth_generate(dm.SynthSpec(n_sites=6, n_days=N_DAYS, extent_km=80.0, seed=4))
    dm.save_dataset(ds, top / "dataset.csv")
    window = est.make_window(ds, ds.dates[-1], N_DAYS)
    (top / "model.txt").write_text(est.fit_model(window).to_text())
    (top / "grid.csv").write_text("row,col,value_hundredths_inch\n0,0,1\n0,1,0\n1,0,4\n1,1,2\n")
    return {"world": str(top / "dataset.csv"), "model": str(top / "model.txt"),
            "grid": str(top / "grid.csv"), "missing": str(top / "missing")}


NOT_UTF8 = b"\xff\xfe\x00bad"


@settings(max_examples=100, deadline=None)
@given(st.one_of(file_cases(), number_cases()))
# Inputs that ended in a traceback: missing input files,
@example((["fit", "--dataset", "{missing}/d.csv", "--date", DATE, "--out", "m.txt"], None))
@example((["synth", "--config", "{missing}/c.conf", "--seed", "1", "--out", "."], None))
@example(([*GRID[:6], "{missing}/g.csv", *GRID[7:]], None))
# a missing output directory,
@example((["fit", "--dataset", "{world}", "--date", DATE, "--out", "{missing}/m.txt"], None))
@example((["forecast", "--model", "{model}", "--dataset", "{world}", "--date", DATE,
           "--seed", "0", "--out", "{missing}/e.csv"], None))
@example((["sweep", "--dataset", "{world}", "--window-days-list", "3", "--dates", "1",
           "--members", "3", "--seed", "0", "--out", "{missing}/s.csv"], None))
# a directory as the dataset,
@example((["fit", "--dataset", ".", "--date", DATE, "--out", "m.txt"], None))
# files that are not UTF-8,
@example((FILE_COMMANDS["dataset"][0], NOT_UTF8))
@example((FILE_COMMANDS["grid"][0], NOT_UTF8))
@example((FILE_COMMANDS["config"][1], NOT_UTF8))
# a malformed config line in each command,
@example((FILE_COMMANDS["config"][0], b"seed 7\n"))
@example((FILE_COMMANDS["config"][1], b"seed 7\n"))
@example((FILE_COMMANDS["config"][2], b"seed 7\n"))
@example((FILE_COMMANDS["config"][3], b"seed 7\n"))
@example((FILE_COMMANDS["config"][4], b"seed 7\n"))
# and numbers out of range.
@example((["sweep", "--dataset", "{world}", "--window-days-list", "3", "--dates", "1",
           "--members", "-3", "--seed", "0", "--out", "s.csv"], None))
@example(([*SYNTH, "--sites", "-2"], None))
@example(([*SYNTH, "--days", "0"], None))
@example(([*SYNTH, "--extent-km", "-5"], None))
@example(([*SYNTH, "--extent-km", "nan"], None))
@example(([*SYNTH, "--extent-km", "inf"], None))
@example(([*GRID, "--grid-cell-km", "nan"], None))
@example(([*GRID, "--grid-cell-km", "inf"], None))
def test_exit_code_contract(world, case):
    template, content = case
    args = [arg.format(**world) for arg in template]
    runner = CliRunner()
    with runner.isolated_filesystem():
        if content is not None:
            with open("input", "wb") as fh:
                fh.write(content)
        result = runner.invoke(cli.main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exception)
    assert result.exit_code in (0, 2, 3, 4), (args, result.output)
    if result.exit_code == 0:
        config = content.decode("utf-8") if "--config" in args else ""
        assert not _counts_below_one(args, config), (args, config)
