"""SHA-256 digests of every CLI output on small fixed inputs.

Runs ``synth``, ``fit``, ``forecast`` (site, areal and grid mode), ``verify``
and ``sweep`` in-process at three seeds and prints one ``<sha256>  <path>``
line per output file, paths relative to the output directory. Each seed also
verifies every eligible date of its world with a two-day window, too short
to fit some dates, so that skipped dates are covered; fits and verifies a
gappy copy of its world, one or two sites missing on every date, so that
windows where some sites do not report are covered; and fits, forecasts and
verifies a copy whose site ids need quoting, so that quoted fields are
covered on the way in and out, and a copy whose site ids hold ``%``, so
that the writers' ``%``-templates are covered. Two checkouts whose listings agree produce
byte-identical outputs, which is the gate for a refactor that must not move
any result. ``tests/cli_digests.txt`` pins the listing: ``--write`` also
writes it to a file, after a header of ``#`` lines that name the numpy
version, its BLAS build and the BLAS thread count, since the bytes are only
promised for a fixed BLAS build.

Usage::

    python scripts/cli_digests.py                 # outputs in a temp dir
    python scripts/cli_digests.py --keep out/     # keep outputs (new or empty dir)
    python scripts/cli_digests.py --src other/src # digest another checkout
    python scripts/cli_digests.py --write tests/cli_digests.txt  # re-pin the listing

Takes about 1.3 s on a 2-core host; ``verify`` and ``sweep`` dominate.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import os
import random
import sys
import tempfile

SEEDS = (1, 2, 3)
SITES, DAYS = 12, 18
GRID_NX, GRID_NY = 9, 7


def run(cli, args):
    """One CLI command; raises on a nonzero exit."""
    rv = cli.main.main(args=[str(a) for a in args], standalone_mode=False)
    if rv not in (None, 0):
        raise SystemExit(f"{args[0]} exited {rv}")


def write_grid_forecast(path):
    """A fixed forecast field with zero cells, so both trend branches run."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row", "col", "value_hundredths_inch"])
        for iy in range(GRID_NY):
            for ix in range(GRID_NX):
                writer.writerow([iy, ix, repr(4.1 * ((3 * iy + ix) % 5))])


def write_gappy(dataset, path, seed):
    """``dataset`` with a fixed, seeded one or two of its sites dropped on
    each date, alternately."""
    with open(dataset, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    by_date = {}
    for row in rows:
        by_date.setdefault(row[3], []).append(row)
    rng = random.Random(seed)
    kept = []
    for i, date in enumerate(sorted(by_date)):
        day = by_date[date]
        drop = set(rng.sample(range(len(day)), 1 + i % 2))
        kept.extend(row for j, row in enumerate(day) if j not in drop)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *kept])


QUOTED = {"s000": "s,000", "s001": 'q"1'}  # ids a CSV writer quotes
PERCENT = {"s000": "p%s", "s001": "100%", "s002": "%r%%"}  # ids that look like %-formats


def write_renamed(dataset, path, names):
    """``dataset`` with the site ids that ``names`` maps renamed."""
    with open(dataset, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [header, *([names.get(row[0], row[0]), *row[1:]] for row in rows)])


def produce(cli, top, seed):
    """All CLI outputs for one seed under ``top/seed<seed>``."""
    out = os.path.join(top, f"seed{seed}")
    world = os.path.join(out, "synth")
    os.makedirs(world)
    run(cli, ["synth", "--seed", seed, "--out", world, "--sites", SITES,
              "--days", DAYS, "--wet-bias-offset", 0.5 * (seed - 1)])
    dataset = os.path.join(world, "dataset.csv")
    with open(dataset, newline="", encoding="utf-8") as fh:
        last = list(csv.reader(fh))[-1][3]
    model = os.path.join(out, "model.txt")
    run(cli, ["fit", "--dataset", dataset, "--date", last, "-M", 12,
              "--seed", seed, "--out", model])
    common = ["--model", model, "--seed", seed]
    run(cli, ["forecast", *common, "--dataset", dataset, "--date", last,
              "--mode", "site", "--members", 9, "--out", os.path.join(out, "site.csv")])
    run(cli, ["forecast", *common, "--dataset", dataset, "--date", last,
              "--mode", "areal", "--members", 400, "--site-ids", "s000,s003,s007",
              "--out", os.path.join(out, "areal.csv")])
    grid_fcst = os.path.join(top, "grid_forecast.csv")
    if not os.path.exists(grid_fcst):
        write_grid_forecast(grid_fcst)
    run(cli, ["forecast", *common, "--mode", "grid", "--members", 4,
              "--grid-forecast", grid_fcst, "--grid-cell-km", 15,
              "--grid-nx", GRID_NX, "--grid-ny", GRID_NY,
              "--out", os.path.join(out, "grid")])
    # An odd and an even ensemble size: the median of an even one is the
    # midpoint of its two middle members.
    for members, name in ((15, "verify"), (16, "verify16")):
        run(cli, ["verify", "--dataset", dataset, "-M", 10, "--members", members,
                  "--mst-members", 9, "--dates", 2, "--seed", seed,
                  "--out", os.path.join(out, name)])
    # Every eligible date: a window of 2 days is too short to fit some
    # dates, so the run skips them (a full 10-day window skips none).
    run(cli, ["verify", "--dataset", dataset, "-M", 2, "--seed", seed,
              "--out", os.path.join(out, "verify_skips")])
    run(cli, ["sweep", "--dataset", dataset, "--window-days-list", "6,10",
              "--dates", 2, "--members", 10, "--seed", seed,
              "--out", os.path.join(out, "sweep.csv")])
    gappy = os.path.join(out, "gappy")
    os.makedirs(gappy)
    write_gappy(dataset, os.path.join(gappy, "dataset.csv"), seed)
    run(cli, ["fit", "--dataset", os.path.join(gappy, "dataset.csv"), "--date", last,
              "-M", 12, "--seed", seed, "--out", os.path.join(gappy, "model.txt")])
    run(cli, ["verify", "--dataset", os.path.join(gappy, "dataset.csv"), "-M", 10,
              "--members", 15, "--mst-members", 9, "--dates", 2, "--seed", seed,
              "--out", os.path.join(gappy, "verify")])
    for name, names, areal in (("quoted", QUOTED, False), ("percent", PERCENT, True)):
        renamed = os.path.join(out, name)
        os.makedirs(renamed)
        write_renamed(dataset, os.path.join(renamed, "dataset.csv"), names)
        run(cli, ["fit", "--dataset", os.path.join(renamed, "dataset.csv"), "--date", last,
                  "-M", 12, "--seed", seed, "--out", os.path.join(renamed, "model.txt")])
        common = ["--model", os.path.join(renamed, "model.txt"), "--seed", seed,
                  "--dataset", os.path.join(renamed, "dataset.csv"), "--date", last]
        run(cli, ["forecast", *common, "--mode", "site", "--members", 9,
                  "--out", os.path.join(renamed, "site.csv")])
        if areal:
            run(cli, ["forecast", *common, "--mode", "areal", "--members", 400,
                      "--site-ids", ",".join(names.values()),
                      "--out", os.path.join(renamed, "areal.csv")])
        run(cli, ["verify", "--dataset", os.path.join(renamed, "dataset.csv"), "-M", 10,
                  "--members", 15, "--mst-members", 9, "--dates", 2, "--seed", seed,
                  "--out", os.path.join(renamed, "verify")])


def digests(top):
    for base, dirs, files in sorted(os.walk(top)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                yield hashlib.sha256(fh.read()).hexdigest(), os.path.relpath(path, top)


def environment():
    """The header lines of a written listing: the numpy version, its BLAS
    build and the thread count that BLAS reports after the CLI has run."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        get_threads = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            threads = get_threads()
    return [f"# numpy {np.__version__}", f"# blas {blas['name']} {blas.get('version')}",
            f"# blas threads {threads}"]


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(here), "src"),
                        help="source tree holding the precipfield package")
    parser.add_argument("--keep", default=None,
                        help="write outputs here (a new or empty directory) instead of "
                             "a temp dir")
    parser.add_argument("--write", default=None,
                        help="also write the listing, after an environment header, to this file")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(args.src, "precipfield", "__init__.py")):
        print(f"--src {args.src}: not a source tree (no precipfield/__init__.py)",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, os.path.abspath(args.src))
    from precipfield import cli

    def emit(top):
        for seed in SEEDS:
            produce(cli, top, seed)
        lines = [f"{digest}  {rel}" for digest, rel in digests(top)]
        print(*lines, sep="\n")
        if args.write:
            with open(args.write, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in environment() + lines))

    if args.keep:
        if os.path.exists(args.keep) and not (os.path.isdir(args.keep)
                                              and not os.listdir(args.keep)):
            print(f"--keep {args.keep}: not an empty directory", file=sys.stderr)
            sys.exit(2)
        os.makedirs(args.keep, exist_ok=True)
        emit(args.keep)
    else:
        with tempfile.TemporaryDirectory() as top:
            emit(top)


if __name__ == "__main__":
    main()
