import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_cli_digests_lists_each_output_once():
    # The byte-identity gate of a refactor: one "<sha256>  <path>" line per
    # output file of the CLI runs.
    res = subprocess.run([sys.executable, str(SCRIPTS / "cli_digests.py")],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines and all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    paths = [line[66:] for line in lines]
    assert len(set(paths)) == len(paths)


def test_cli_digests_keeps_outputs_only_in_an_empty_directory(tmp_path):
    # An existing empty directory takes the outputs; once it holds them, a
    # second run refuses it in one line, exits 2 and writes nothing.
    keep = tmp_path / "out"
    keep.mkdir()
    script = [sys.executable, str(SCRIPTS / "cli_digests.py"), "--keep", str(keep)]
    res = subprocess.run(script, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    listed = sorted(line[66:] for line in res.stdout.splitlines())
    written = sorted(str(p.relative_to(keep)) for p in keep.rglob("*") if p.is_file())
    assert listed == written and written
    res = subprocess.run(script, capture_output=True, text=True, timeout=300)
    assert res.returncode == 2
    assert res.stdout == "" and res.stderr == f"--keep {keep}: not an empty directory\n"
    assert sorted(str(p.relative_to(keep)) for p in keep.rglob("*") if p.is_file()) == written


def test_criteria_spread_prints_one_criterion():
    res = subprocess.run([sys.executable, str(SCRIPTS / "criteria_spread.py"),
                          "--criteria", "6", "--seeds", "2"],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "criterion 6: spatial value"
    assert [line.split()[0] for line in lines[2:]] == [
        "spatial_mst_chi2", "independent_mst_chi2", "es_spatial_minus_independent"]
    assert all(line.rstrip().endswith("/2") or line.endswith("/2 (below)") for line in lines[2:])


@pytest.mark.parametrize("args, message", [
    (["--criteria", "9"], "--criteria 9: unknown criterion '9' (choose from 2, 5, 6, 7)\n"),
    (["--criteria", "x"], "--criteria x: unknown criterion 'x' (choose from 2, 5, 6, 7)\n"),
    (["--criteria", "2, 9"], "--criteria 2, 9: unknown criterion '9' (choose from 2, 5, 6, 7)\n"),
    (["--seeds", "1"], "--seeds 1: quartiles need at least 2 fresh seeds\n"),
    (["--seeds", "0"], "--seeds 0: quartiles need at least 2 fresh seeds\n"),
])
def test_criteria_spread_refuses_bad_arguments(args, message):
    # Refused in one stderr line before any criterion runs.
    res = subprocess.run([sys.executable, str(SCRIPTS / "criteria_spread.py"), *args],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    assert res.stdout == "" and res.stderr == message


@pytest.mark.parametrize("script", ["cli_digests.py", "criteria_spread.py"])
def test_src_without_the_package_is_refused(tmp_path, script):
    # With this checkout on PYTHONPATH, a mistyped --src used to digest this
    # tree instead; without it, the run ended in a traceback.
    missing = tmp_path / "missing"
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    res = subprocess.run([sys.executable, str(SCRIPTS / script), "--src", str(missing)],
                         capture_output=True, text=True, timeout=60, env=env)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"--src {missing}: not a source tree (no precipfield/__init__.py)\n"
