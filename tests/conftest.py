import csv
import io

from precipfield import data as dm


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
    """What ``csv.writer`` writes for ``rows``, as bytes: the reference the
    bulk CSV writers must match byte for byte."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")
