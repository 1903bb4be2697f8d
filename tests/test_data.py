import datetime as dt

import numpy as np
import pytest
from scipy.special import ndtr

from precipfield import data as dm
from precipfield.errors import NoData, NotFound, ParseError, ValidationError


def make_record(site="a", x=0.0, y=0.0, day=1, obs=0.0, fcst=0.0):
    return dm.DailyRecord(site, x, y, dt.date(2004, 1, day), obs, fcst)


class TestRecordValidation:
    def test_negative_obs_rejected(self):
        with pytest.raises(ValidationError):
            make_record(obs=-1.0)

    def test_negative_fcst_rejected(self):
        with pytest.raises(ValidationError):
            make_record(fcst=-0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            make_record(obs=np.nan)


class TestDataset:
    def test_duplicate_site_date_rejected(self):
        with pytest.raises(ValidationError):
            dm.Dataset([make_record(), make_record()])

    def test_inconsistent_coordinates_rejected(self):
        with pytest.raises(ValidationError):
            dm.Dataset([make_record(day=1, x=0.0), make_record(day=2, x=5.0)])

    def test_dates_sorted(self):
        ds = dm.Dataset([make_record(day=3), make_record(day=1)])
        assert ds.dates == [dt.date(2004, 1, 1), dt.date(2004, 1, 3)]

    def test_by_date(self):
        ds = dm.Dataset([make_record(day=1), make_record(site="b", x=1.0, day=1),
                         make_record(day=2)])
        assert len(ds.by_date(dt.date(2004, 1, 1))) == 2


class TestLoadSave:
    def test_round_trip_bit_exact(self, tmp_path):
        recs = [
            make_record("a", 1.25, 2.5, 1, 0.0, 3.7),
            make_record("b", 100.0, 0.125, 1, 12.0, 0.0),
            make_record("a", 1.25, 2.5, 2, 7.0, 1.0000000001),
        ]
        path = tmp_path / "ds.csv"
        dm.save_dataset(dm.Dataset(recs), path)
        loaded = dm.load_dataset(path)
        assert loaded.records == sorted(recs, key=lambda r: (r.date, r.site_id))

    def test_save_deterministic_bytes(self, tmp_path):
        ds = dm.Dataset([make_record("b", 1.0, 2.0, 1, 3.0, 4.0), make_record("a")])
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
        with pytest.raises(ValidationError):
            dm.load_dataset(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(dm.CSV_HEADER) + "\na,0,0,2004-01-01,1,2\na,0,0,not-a-date,1,2\n"
        )
        with pytest.raises(ParseError, match=":3"):
            dm.load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n")
        with pytest.raises(ParseError):
            dm.load_dataset(path)


class TestDatasetSummary:
    def test_identical_pairs(self):
        ds = dm.Dataset([make_record(obs=5.0, fcst=5.0),
                         make_record(site="b", x=1.0, obs=5.0, fcst=5.0)])
        s = dm.dataset_summary(ds)
        assert s["over_forecast_fraction"] == 0.0
        assert s["mean_error"] == 0.0

    def test_counting(self):
        ds = dm.Dataset([make_record(obs=0.0, fcst=10.0),
                         make_record(site="b", x=1.0, obs=0.0, fcst=0.0)])
        s = dm.dataset_summary(ds)
        assert s["over_forecast_fraction"] == 0.5
        assert s["mean_error"] == 5.0
        assert s["nonzero_forecast_fraction"] == 0.5
        assert s["nonzero_observation_fraction"] == 0.0

    def test_empty(self):
        with pytest.raises(NoData):
            dm.dataset_summary(dm.Dataset([]))


class TestSplitByDate:
    def test_strict_history(self):
        ds = dm.Dataset([make_record(day=d) for d in (1, 2, 3)])
        hist, current = dm.split_by_date(ds, dt.date(2004, 1, 2))
        assert [r.date.day for r in hist.records] == [1]
        assert [r.date.day for r in current] == [2]

    def test_missing_date(self):
        ds = dm.Dataset([make_record(day=1)])
        with pytest.raises(NotFound):
            dm.split_by_date(ds, dt.date(2004, 1, 9))


class TestDateLookups:
    """Bisection lookups agree with a plain scan of the sorted records."""

    @pytest.fixture()
    def gappy(self):
        rng = np.random.default_rng(11)
        recs = []
        for day in range(1, 29):
            if day in (6, 7, 20):  # no records at all
                continue
            if day in (3, 15):  # a single site reports
                present = ["c"]
            else:  # some sites missing
                present = [s for s in "abcde" if rng.random() < 0.7] or ["a"]
            recs += [make_record(s, float(ord(s)), 0.0, day, obs=float(day))
                     for s in present]
        order = rng.permutation(len(recs))
        return dm.Dataset([recs[i] for i in order])

    def test_by_date_matches_scan(self, gappy):
        for day in range(1, 31):
            date = dt.date(2004, 1, day)
            assert gappy.by_date(date) == [r for r in gappy.records if r.date == date]
        assert gappy.by_date(dt.date(2004, 1, 7)) == []
        assert gappy.by_date(dt.date(2003, 12, 31)) == []

    def test_split_matches_scan(self, gappy):
        for date in gappy.dates:
            hist, current = dm.split_by_date(gappy, date)
            assert hist.records == [r for r in gappy.records if r.date < date]
            assert current == [r for r in gappy.records if r.date == date]

    def test_split_absent_date(self, gappy):
        for day in (6, 20, 30):
            with pytest.raises(NotFound):
                dm.split_by_date(gappy, dt.date(2004, 1, day))


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
        assert a.records == b.records

    def test_shape_and_invariants(self):
        spec = dm.SynthSpec(n_sites=12, n_days=7, seed=1)
        ds = dm.synth_generate(spec)
        assert len(ds) == 12 * 7
        assert len(ds.dates) == 7
        for r in ds.records:
            assert r.obs >= 0 and r.fcst >= 0
            assert r.obs == int(r.obs)  # observations quantized

    def test_wet_bias_offset(self):
        spec = dm.SynthSpec(n_sites=40, n_days=250, seed=2, wet_bias_offset=30.0)
        s = dm.dataset_summary(dm.synth_generate(spec))
        assert s["over_forecast_fraction"] > 0.7

    def test_occurrence_rate_matches_probit_oracle(self):
        # With the trend coefficients the wet probability at each site is
        # Phi(mu); the realized nonzero fraction must match its average.
        spec = dm.SynthSpec(n_sites=30, n_days=400, seed=5)
        ds = dm.synth_generate(spec)
        obs = np.array([r.obs for r in ds.records])
        fcst = np.array([r.fcst for r in ds.records])
        fcst_cr = np.cbrt(fcst)
        zero = fcst == 0.0
        mu = spec.gamma[0] + spec.gamma[1] * fcst_cr + spec.gamma[2] * zero
        assert abs((obs > 0).mean() - ndtr(mu).mean()) < 0.03

    def test_explicit_sites_used(self):
        sites = dm._synth_sites(dm.SynthSpec(n_sites=3, seed=0),
                                np.random.default_rng(0))
        ds = dm.synth_generate(dm.SynthSpec(sites=sites, n_days=2, seed=0))
        assert set(ds.sites) == {s.id for s in sites}

    def test_truth_parameters_keys(self):
        spec = dm.SynthSpec()
        truth = dm.truth_parameters(spec)
        assert set(truth) == {
            "gamma0", "gamma1", "gamma2", "rho_km",
            "eta0", "eta1", "eta2", "nu0", "nu1", "r_km",
        }
        assert truth["rho_km"] == spec.rho_km
