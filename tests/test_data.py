import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest
from conftest import TRICKY_ID_CHARS, column_csv, csv_reference, dataset_from_rows, dataset_rows
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from precipfield import data as dm
from precipfield import estimation as est
from precipfield import fields as rf
from precipfield.errors import NotFound, ParseError, ValidationError


def make_row(site="a", x=0.0, y=0.0, day=1, obs=0.0, fcst=0.0):
    return (site, x, y, dt.date(2004, 1, day), obs, fcst)


class TestRecordValidation:
    """Construction rejects a bad value and names its site and date."""

    def test_negative_obs_rejected(self):
        with pytest.raises(ValidationError, match="^a 2004-01-01: obs"):
            dataset_from_rows([make_row(obs=-1.0)])

    def test_negative_fcst_rejected(self):
        with pytest.raises(ValidationError, match="^b 2004-01-02: fcst"):
            dataset_from_rows([make_row(), make_row(site="b", x=1.0, day=2, fcst=-0.5)])

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="^a 2004-01-01: obs"):
                dataset_from_rows([make_row(obs=bad)])

    def test_first_bad_row_named(self):
        rows = [make_row(site="c", x=2.0, day=3), make_row(site="b", x=1.0, day=2, obs=-1.0),
                make_row(site="a", day=1, obs=-2.0)]
        with pytest.raises(ValidationError, match="^b 2004-01-02"):
            dataset_from_rows(rows)

    def test_nonfinite_coordinates_rejected(self):
        with pytest.raises(ValidationError, match="site a on 2004-01-01: coordinates"):
            dataset_from_rows([make_row(y=np.nan)])


class TestDataset:
    def test_duplicate_site_date_rejected(self):
        rows = [make_row(day=2), make_row(site="b", x=1.0), make_row(day=2)]
        with pytest.raises(ValidationError, match="site a on 2004-01-02"):
            dataset_from_rows(rows)

    def test_inconsistent_coordinates_rejected(self):
        with pytest.raises(ValidationError, match="site a on 2004-01-02"):
            dataset_from_rows([make_row(day=1, x=0.0), make_row(day=2, x=5.0)])

    def test_dates_sorted(self):
        ds = dataset_from_rows([make_row(day=3), make_row(day=1)])
        assert ds.dates == [dt.date(2004, 1, 1), dt.date(2004, 1, 3)]

    def test_by_date(self):
        ds = dataset_from_rows([make_row(day=1), make_row(site="b", x=1.0, day=1),
                                make_row(day=2)])
        assert ds.offsets.tolist() == [0, 2, 3]
        assert len(dm.split_by_date(ds, dt.date(2004, 1, 1))[1]) == 2

    def test_empty(self):
        ds = dataset_from_rows([])
        assert len(ds) == 0 and ds.dates == [] and ds.offsets.tolist() == [0]

    def test_columns_read_only(self):
        ds = dataset_from_rows([make_row(obs=3.0)])
        _, current = dm.split_by_date(ds, dt.date(2004, 1, 1))
        with pytest.raises(ValueError):
            current.obs[0] = 0.0

    def test_rows_in_key_order_are_kept(self):
        # Rows in (date, site) order are neither sorted nor copied: the
        # value columns are read-only views of the arrays passed, which stay
        # writeable. Rows out of order are copied in key order.
        obs, fcst = np.array([1.0, 2.0, 3.0]), np.array([0.0, 4.0, 5.0])
        ds = dm.Dataset(["a", "b", "a"], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                        [dt.date(2004, 1, 1)] * 2 + [dt.date(2004, 1, 2)], obs, fcst)
        assert np.shares_memory(ds.obs, obs) and np.shares_memory(ds.fcst, fcst)
        assert obs.flags.writeable and not ds.obs.flags.writeable
        ds = dm.Dataset(["b", "a", "a"], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                        [dt.date(2004, 1, 1)] * 2 + [dt.date(2004, 1, 2)], obs, fcst)
        assert not np.shares_memory(ds.obs, obs)
        assert ds.obs.tolist() == [2.0, 1.0, 3.0] and ds.site.tolist() == [0, 1, 0]


class TestLoadSave:
    def test_round_trip_bit_exact(self, tmp_path):
        rows = [
            make_row("a", 1.25, 2.5, 1, 0.0, 3.7),
            make_row("b", 100.0, 0.125, 1, 12.0, 0.0),
            make_row("a", 1.25, 2.5, 2, 7.0, 1.0000000001),
        ]
        path = tmp_path / "ds.csv"
        dm.save_dataset(dataset_from_rows(rows), path)
        loaded = dm.load_dataset(path)
        assert dataset_rows(loaded) == sorted(rows, key=lambda r: (r[3], r[0]))

    def test_save_deterministic_bytes(self, tmp_path):
        ds = dataset_from_rows([make_row("b", 1.0, 2.0, 1, 3.0, 4.0), make_row("a")])
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        dm.save_dataset(ds, p1)
        dm.save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(dm.CSV_HEADER) + "\n")
        assert len(dm.load_dataset(path)) == 0

    def test_negative_obs_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(dm.CSV_HEADER) + "\na,0,0,2004-01-01,-1,0\n"
        )
        with pytest.raises(ValidationError, match="^a 2004-01-01: obs"):
            dm.load_dataset(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(dm.CSV_HEADER) + "\na,0,0,2004-01-01,1,2\na,0,0,not-a-date,1,2\n"
        )
        with pytest.raises(ParseError, match=":3"):
            dm.load_dataset(path)

    @pytest.mark.parametrize("row, line", [
        ("b,1,1,2004-01-01,1", ":4: expected 6 fields"),
        ("b,1,x,2004-01-01,1,2", ":4: could not convert"),
        ("b,1,1,2004-01-01,1,2e", ":4: could not convert"),
        ("b,1,1,2004-02-30,1,2", ":4: day is out of range"),
    ])
    def test_parse_error_names_line(self, tmp_path, row, line):
        path = tmp_path / "bad.csv"
        # A blank line still counts: the bad row is line 4, also after a
        # quoted site id.
        for first in ("a", '"a,1"'):
            path.write_text(",".join(dm.CSV_HEADER) + f"\n{first},0,0,2004-01-01,1,2\n\n"
                            + row + "\n")
            with pytest.raises(ParseError, match=line):
                dm.load_dataset(path)

    @pytest.mark.parametrize("rows, line", [
        # Each file holds two bad rows; the earlier one is named, whatever
        # its check: field count, then x, y, obs, fcst, then date.
        (["b,1,1,2004-01-0x,1,2", "c,1,1,2004-01-01,1"], ":3: Invalid isoformat"),
        (["b,1,1,2004-01-01,1", "c,x,1,2004-01-01,1,2"], ":3: expected 6 fields"),
        (["b,1,1,2004-01-01,1,2", "c,1,1,2004-01-01,1,x", "d,x,1,2004-01-01,1,2"],
         ":4: could not convert string to float: 'x'"),
        (["b,1,y,2004-01-0x,1,2"], ":3: could not convert string to float: 'y'"),
        (["b,1,1,2004-01-0x,z,2"], ":3: could not convert string to float: 'z'"),
    ])
    def test_earlier_bad_row_named(self, tmp_path, rows, line):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join(dm.CSV_HEADER), "a,0,0,2004-01-01,1,2",
                                   *rows]) + "\n")
        with pytest.raises(ParseError, match=line):
            dm.load_dataset(path)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_rows_and_errors_cross_blocks(self, tmp_path, monkeypatch, block):
        # Blocks of a few rows: rows, blank lines, a site id that spans two
        # lines and bad rows fall across block edges, and the dataset and
        # each message's line stay those of one block.
        good = [",".join(dm.CSV_HEADER), "a,0,0,2004-01-01,1,2", "",
                "b,1,1,2004-01-01,0,3.5", "", "", "a,0,0,2004-01-02,2,0",
                '"c\nd",1,1,2004-01-02,7,1', ""]
        path, bad = tmp_path / "ds.csv", tmp_path / "bad.csv"
        path.write_text("\n".join(good) + "\n")

        def loaded():
            messages = []
            for row in ("b,1,1,2004-01-03,1", "b,1,1,2004-01-03,1,x", "b,1,1,2004-01-0x,1,2"):
                bad.write_text("\n".join([*good, "", row, "a,0,0,2004-01-03,1,2"]) + "\n")
                with pytest.raises(ParseError) as exc:
                    dm.load_dataset(bad)
                messages.append(str(exc.value))
            return dataset_rows(dm.load_dataset(path)), messages

        expected = loaded()
        assert all(":12: " in message for message in expected[1])
        monkeypatch.setattr(dm, "_BLOCK_ROWS", block)
        assert loaded() == expected

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_grid_errors_cross_blocks(self, tmp_path, monkeypatch, block):
        # A grid file's bad rows fall across block edges: an earlier bad
        # value is named before a later short row, and a short row after a
        # full block is named with its line.
        monkeypatch.setattr(dm, "_BLOCK_ROWS", block)
        grid = rf.GridSpec(0.0, 0.0, 10.0, 2, 2)
        head = "row,col,value_hundredths_inch\n0,0,1\n0,1,2\n1,0,3\n"
        path = tmp_path / "g.csv"
        for tail, message in (("1,1,-1\n1,1\n", r"g\.csv:5: value -1\.0 is not"),
                              ("\n1,1\n", r"g\.csv:6: expected 3 fields")):
            path.write_text(head + tail)
            with pytest.raises(ParseError, match=message):
                dm.load_grid_field(path, grid)

    def test_traced_peak_of_a_large_file(self, tmp_path):
        # 73,000 rows: they are converted a block at a time, and the saved
        # rows are in key order, so the dataset keeps the joined columns
        # without a sort or a copy. Blocks of 16,384 rows, and a sorted copy
        # of every column, peaked near 14 MB.
        path = tmp_path / "ds.csv"
        dm.save_dataset(dm.synth_generate(dm.SynthSpec(n_sites=200, n_days=365, seed=1)), path)
        tracemalloc.start()
        try:
            ds = dm.load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 200 * 365
        assert peak <= 8e6
        for name in ("site", "date", "xy", "obs", "fcst"):  # no column pins a larger array
            assert _owner(getattr(ds, name)).nbytes == getattr(ds, name).nbytes

    def test_traced_peak_of_saving_a_large_dataset(self, tmp_path):
        # 73,000 rows are formatted a date at a time, each site's
        # coordinates once; formatted as one list of strings per column
        # they peaked near 25 MB, and with each distinct coordinate bit
        # pattern found by a sort, near 6 MB.
        ds = dm.synth_generate(dm.SynthSpec(n_sites=200, n_days=365, seed=1))
        tracemalloc.start()
        try:
            dm.save_dataset(ds, tmp_path / "ds.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6
        assert dataset_rows(dm.load_dataset(tmp_path / "ds.csv")) == dataset_rows(ds)

    def test_parse_error_counts_physical_lines(self, tmp_path):
        # A site id holding a newline spans lines 2-3, so the bad date is on
        # line 4; counting CSV records used to report line 3.
        path = tmp_path / "nl.csv"
        path.write_text(",".join(dm.CSV_HEADER) + '\n"a\nb",0,0,2004-01-01,1,2\n'
                        "c,1,1,2004-01-0x,1,2\n")
        with pytest.raises(ParseError, match=r"nl\.csv:4: Invalid isoformat"):
            dm.load_dataset(path)

    def test_grid_error_counts_physical_lines(self, tmp_path):
        # Record 2 spans lines 2-3: the out-of-range cell is on line 4, and
        # the end of the file, short of the fourth cell, is line 6.
        grid = rf.GridSpec(0.0, 0.0, 10.0, 2, 2)
        head = 'row,col,value_hundredths_inch\n"0\n",0,1\n'
        path = tmp_path / "g.csv"
        path.write_text(head + "0,5,1\n")
        with pytest.raises(ParseError, match=r"g\.csv:4: cell \(0, 5\) outside"):
            dm.load_grid_field(path, grid)
        path.write_text(head + "0,1,1\n1,0,1\n")
        with pytest.raises(ParseError, match=r"g\.csv:6: end of file with 1 cells"):
            dm.load_grid_field(path, grid)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n")
        with pytest.raises(ParseError):
            dm.load_dataset(path)


def _owner(array):
    """The array that owns ``array``'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


SITE_IDS = st.one_of(
    st.sampled_from(["a,b", 'q"uote', "né", "東京", " padded ", "", "a\rb", "\r\n",
                     "p%s", "100%", "%r%%"]),
    st.lists(st.sampled_from(TRICKY_ID_CHARS), max_size=4).map("".join),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=6),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def datasets(draw):
    """Rows of a valid dataset in random order: a few sites with fixed
    coordinates, each reporting on a random subset of a few dates."""
    coords = draw(st.dictionaries(SITE_IDS, st.tuples(FINITE, FINITE), min_size=1, max_size=4))
    dates = [dt.date(2004, 1, 1) + dt.timedelta(days=d)
             for d in draw(st.sets(st.integers(0, 400), min_size=1, max_size=4))]
    keys = draw(st.lists(st.tuples(st.sampled_from(sorted(coords)), st.sampled_from(dates)),
                         unique=True, max_size=12))
    # A zero coordinate takes either sign row by row: 0.0 == -0.0, so the
    # site's coordinates still agree, but each row must be written as stored.
    zero = st.sampled_from([0.0, -0.0])
    return [(site, *(draw(zero) if c == 0 else c for c in coords[site]), date,
             draw(NONNEGATIVE), draw(NONNEGATIVE))
            for site, date in keys]


class TestWriteCsv:
    """A CSV file appears whole under its name or not at all."""

    def test_written_whole_and_no_temporary_left(self, tmp_path):
        path = tmp_path / "t.csv"
        dm.write_csv(path, ["a", "b"], ["1,2\n", "3,4\n"])
        assert path.read_text() == "a,b\n1,2\n3,4\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    @pytest.mark.parametrize("before", [None, "old\n"])
    def test_failure_after_a_block_keeps_what_was_there(self, tmp_path, before):
        # It used to leave the header and the first block under the name.
        path = tmp_path / "t.csv"
        if before is not None:
            path.write_text(before)

        def blocks():
            yield "1,2\n"
            raise NotFound("late")

        with pytest.raises(NotFound, match="late"):
            dm.write_csv(path, ["a", "b"], blocks())
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["t.csv"])
        assert before is None or path.read_text() == before


SIGNED_ZERO_SITE = [("z", 0.0, -0.0, dt.date(2004, 1, 1), 0.0, 1.0),
                    ("z", -0.0, 0.0, dt.date(2004, 1, 2), 2.0, 0.0),
                    ("z", 0.0, 0.0, dt.date(2004, 1, 3), 0.0, 0.0)]


class TestColumnarRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(rows=datasets())
    @example(rows=SIGNED_ZERO_SITE)
    def test_save_load_bit_exact(self, tmp_path_factory, rows):
        ds = dataset_from_rows(rows)
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        dm.save_dataset(ds, path)
        stored = sorted(rows, key=lambda r: (r[3], r[0]))
        assert path.read_bytes() == csv_reference(
            dm.CSV_HEADER, [(s, repr(x), repr(y), d.isoformat(), repr(o), repr(f))
                            for s, x, y, d, o, f in stored])
        assert path.read_bytes() == column_csv(dm.CSV_HEADER, [
            [dm.csv_field(r[0]) for r in stored], *([repr(r[k]) for r in stored] for k in (1, 2)),
            [r[3].isoformat() for r in stored], *([repr(r[k]) for r in stored] for k in (4, 5))])
        loaded = dm.load_dataset(path)
        assert loaded.sites == ds.sites and loaded.dates == ds.dates
        for name in ("offsets", "site", "date"):
            assert np.array_equal(getattr(loaded, name), getattr(ds, name))
        for name in ("xy", "obs", "fcst"):
            assert np.array_equal(getattr(loaded, name).view(np.uint64),
                                  getattr(ds, name).view(np.uint64))


def first_offence(rows):
    """The message for the first offending row of ``rows`` in input order,
    each check in turn: a negative or non-finite obs, then fcst, non-finite
    coordinates, coordinates that differ from the site's first row, and a
    repeated (site, date); None when every row is valid."""
    first, seen = {}, set()
    for site, x, y, *_ in rows:
        first.setdefault(site, (x, y))

    def repeated(site, date):
        repeat = (site, date) in seen
        seen.add((site, date))
        return repeat

    rules = [(lambda s, x, y, d, o, f: not (math.isfinite(o) and o >= 0),
              "{} {}: obs must be >= 0"),
             (lambda s, x, y, d, o, f: not (math.isfinite(f) and f >= 0),
              "{} {}: fcst must be >= 0"),
             (lambda s, x, y, d, o, f: not (math.isfinite(x) and math.isfinite(y)),
              "site {} on {}: coordinates must be finite"),
             (lambda s, x, y, d, o, f: (x, y) != first[s],
              "site {} on {}: coordinates differ from its first row"),
             (lambda s, x, y, d, o, f: repeated(s, d), "duplicate record for site {} on {}")]
    for bad, message in rules:
        for row in rows:
            if bad(*row):
                return message.format(row[0], row[3])
    return None


class TestValidationRule:
    """One bad row in a valid row set, in random or saved order, is named
    as the first offending row in input order."""

    @settings(max_examples=150, deadline=None)
    @given(rows=datasets(), saved=st.booleans(),
           kind=st.sampled_from(["duplicate", "coordinates", "negative"]), data=st.data())
    def test_names_first_offending_row(self, rows, saved, kind, data):
        assume(rows)
        if saved:
            rows.sort(key=lambda r: (r[3], r[0]))
        assert first_offence(rows) is None
        assert dataset_rows(dataset_from_rows(rows)) == sorted(rows, key=lambda r: (r[3], r[0]))
        site, x, y, date, obs, fcst = data.draw(st.sampled_from(rows))
        if kind != "duplicate":  # on a date the site does not report yet
            taken = {r[3] for r in rows if r[0] == site}
            date = data.draw(st.sampled_from(
                sorted({r[3] for r in rows} - taken | {dt.date(2005, 3, 1)})))
        if kind == "coordinates":
            x = 1.0 if x != 1.0 else 2.0
        if kind == "negative":
            obs = data.draw(st.one_of(st.floats(max_value=-5e-324), st.just(math.nan)))
        rows.insert(data.draw(st.integers(0, len(rows))), (site, x, y, date, obs, fcst))
        message = first_offence(rows)
        assert message is not None
        with pytest.raises(ValidationError) as exc:
            dataset_from_rows(rows)
        assert str(exc.value) == message


class TestSplitByDate:
    def test_strict_history(self):
        ds = dataset_from_rows([make_row(day=d) for d in (1, 2, 3)])
        hist, current = dm.split_by_date(ds, dt.date(2004, 1, 2))
        assert [r[3].day for r in dataset_rows(hist)] == [1]
        assert [r[3].day for r in dataset_rows(current)] == [2]

    def test_history_shares_columns(self):
        # A span from the first date shares every row column with its
        # dataset, its date column too; a later span shifts its dates.
        ds = dm.synth_generate(dm.SynthSpec(n_sites=4, n_days=6, seed=2))
        hist, current = dm.split_by_date(ds, ds.dates[3])
        for name in ("site", "date", "xy", "obs", "fcst"):
            assert np.shares_memory(getattr(hist, name), getattr(ds, name))
            assert not getattr(hist, name).flags.writeable
            assert not getattr(current, name).flags.writeable
        assert hist.date.tolist() == ds.date[:12].tolist()
        assert current.date.tolist() == [0] * 4
        with pytest.raises(ValueError):
            hist.date[0] = 1

    def test_missing_date(self):
        ds = dataset_from_rows([make_row(day=1)])
        with pytest.raises(NotFound):
            dm.split_by_date(ds, dt.date(2004, 1, 9))


class TestDateLookups:
    """Offset slices agree with a plain scan of the fixture's rows."""

    @pytest.fixture()
    def gappy(self):
        rng = np.random.default_rng(11)
        rows = []
        for day in range(1, 29):
            if day in (6, 7, 20):  # no records at all
                continue
            if day in (3, 15):  # a single site reports
                present = ["c"]
            else:  # some sites missing
                present = [s for s in "abcde" if rng.random() < 0.7] or ["a"]
            rows += [make_row(s, float(ord(s)), 0.0, day, obs=float(day)) for s in present]
        order = rng.permutation(len(rows))
        return [rows[i] for i in order]

    def scan(self, rows, keep):
        return sorted((r for r in rows if keep(r[3])), key=lambda r: (r[3], r[0]))

    def test_by_date_matches_scan(self, gappy):
        ds = dataset_from_rows(gappy)
        for day in range(1, 31):
            date = dt.date(2004, 1, day)
            expected = self.scan(gappy, lambda d: d == date)
            if not expected:
                with pytest.raises(NotFound):
                    dm.day_arrays(ds, date)
                continue
            sites, fcst, obs = dm.day_arrays(ds, date)
            assert [(s.id, s.x, s.y) for s in sites] == [r[:3] for r in expected]
            assert fcst.tolist() == [r[5] for r in expected]
            assert obs.tolist() == [r[4] for r in expected]
        with pytest.raises(NotFound):
            dm.day_arrays(ds, dt.date(2003, 12, 31))

    def test_split_matches_scan(self, gappy):
        ds = dataset_from_rows(gappy)
        for date in ds.dates:
            hist, current = dm.split_by_date(ds, date)
            assert dataset_rows(hist) == self.scan(gappy, lambda d: d < date)
            assert dataset_rows(current) == self.scan(gappy, lambda d: d == date)
            assert len(hist) + len(current) == len(self.scan(gappy, lambda d: d <= date))

    def test_window_matches_scan(self, gappy):
        ds = dataset_from_rows(gappy)
        for day in (1, 2, 8, 21, 31):
            valid = dt.date(2004, 1, day)
            dates = sorted({r[3] for r in gappy if r[3] < valid})
            if not dates:
                continue
            window = est.make_window(ds, valid, 4)
            assert list(window.days) == dates[-4:]
            for date, arrays in window.days.items():
                expected = self.scan(gappy, lambda d: d == date)
                assert arrays["xy"].tolist() == [[r[1], r[2]] for r in expected]
                assert arrays["obs"].tolist() == [r[4] for r in expected]
                assert arrays["fcst"].tolist() == [r[5] for r in expected]

    def test_split_absent_date(self, gappy):
        ds = dataset_from_rows(gappy)
        for day in (6, 20, 30):
            with pytest.raises(NotFound):
                dm.split_by_date(ds, dt.date(2004, 1, day))


class TestQuantize:
    def test_below_one_hundredth_is_zero(self):
        assert dm.quantize(0.9) == 0.0

    def test_rounding(self):
        assert dm.quantize(1.4) == 1.0
        assert dm.quantize(12.6) == 13.0

    def test_array(self):
        out = dm.quantize(np.array([0.0, 0.51, 1.2, 7.2]))
        assert out.tolist() == [0.0, 0.0, 1.0, 7.0]


class TestSynthGenerate:
    def test_deterministic(self):
        spec = dm.SynthSpec(n_sites=10, n_days=5, seed=3)
        a = dm.synth_generate(spec)
        b = dm.synth_generate(spec)
        assert dataset_rows(a) == dataset_rows(b)

    def test_shape_and_invariants(self):
        spec = dm.SynthSpec(n_sites=12, n_days=7, seed=1)
        ds = dm.synth_generate(spec)
        assert len(ds) == 12 * 7
        assert len(ds.dates) == 7
        for r in dataset_rows(ds):
            assert r[4] >= 0 and r[5] >= 0
            assert r[4] == int(r[4])  # observations quantized

    def test_traced_peak_of_a_large_world(self):
        # 200 sites x 365 days: the (days, sites) temporaries and the
        # correlation factors are freed before the dataset is built, and
        # its rows, in key order, are neither sorted nor copied. Held
        # alive, and sorted, they peaked near 17 MB.
        tracemalloc.start()
        try:
            ds = dm.synth_generate(dm.SynthSpec(n_sites=200, n_days=365, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 200 * 365
        assert peak <= 8e6

    def test_wet_bias_offset(self):
        spec = dm.SynthSpec(n_sites=40, n_days=250, seed=2, wet_bias_offset=30.0)
        ds = dm.synth_generate(spec)
        assert (ds.fcst > ds.obs).mean() > 0.7

    def test_occurrence_rate_matches_probit_oracle(self):
        # With the trend coefficients the wet probability at each site is
        # Phi(mu); the realized nonzero fraction must match its average.
        spec = dm.SynthSpec(n_sites=30, n_days=400, seed=5)
        ds = dm.synth_generate(spec)
        obs, fcst = ds.obs, ds.fcst
        fcst_cr = np.cbrt(fcst)
        zero = fcst == 0.0
        mu = spec.gamma[0] + spec.gamma[1] * fcst_cr + spec.gamma[2] * zero
        assert abs((obs > 0).mean() - ndtr(mu).mean()) < 0.03
