import csv
import io

import pytest

from precipfield import data as dm
from precipfield import forecasting as fc

_usable_cpus = fc._usable_cpus


@pytest.fixture(autouse=True)
def at_most_two_workers(monkeypatch):
    """A forecast in a test forks no more than 2 workers, whatever the
    host's CPU count."""
    monkeypatch.setattr(fc, "_usable_cpus", lambda: min(2, _usable_cpus()))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(rep, "when", "call") == "call":
                rows.append((nodeid.split("::")[-1], status == "passed"))
    if rows:
        terminalreporter.section("acceptance criteria")
        for name, ok in sorted(rows):
            terminalreporter.write_line(f"{name}: {'PASS' if ok else 'FAIL'}")


def dataset_from_rows(rows):
    """A dataset built from ``(site_id, x, y, date, obs, fcst)`` rows."""
    return dm.Dataset(*(zip(*rows) if rows else [()] * 6))


def dataset_rows(ds):
    """The ``(site_id, x, y, date, obs, fcst)`` rows of a dataset or view,
    in stored order."""
    return list(zip([ds.sites[k] for k in ds.site.tolist()],
                    ds.xy[:, 0].tolist(), ds.xy[:, 1].tolist(),
                    [ds.dates[k] for k in ds.date.tolist()],
                    ds.obs.tolist(), ds.fcst.tolist()))


def csv_reference(header, rows):
    """What ``csv.writer`` writes for ``rows``, one row at a time, as bytes:
    the reference the bulk CSV writers must match byte for byte. Each row is
    written with a "\r\n" terminator, which also quotes a field holding a
    carriage return, and ends in "\n"."""
    lines = []
    for row in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


def column_csv(header, columns):
    """A header and equal-length columns of formatted fields as CSV bytes,
    every row joined in one pass: the former column writer, kept as the
    reference that the streaming ``%``-template writers must match."""
    return ("\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n").encode("utf-8")


# Site ids that stress both CSV quoting and %-templates.
TRICKY_ID_CHARS = ["%", "%r", "%%", "%s", '"', ",", "\r", "\n", "a", "1", " ", "ü"]
