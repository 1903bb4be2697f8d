import re
import subprocess
import sys
from pathlib import Path

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
