import ast
import collections
import datetime as dt
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import dataset_from_rows, dataset_rows
from scipy import linalg, optimize, stats
from scipy.special import log_ndtr, ndtr

from precipfield import data as dm
from precipfield import estimation as est
from precipfield import fields as rf
from precipfield import transforms as tr
from precipfield import verification as vf
from precipfield.errors import (
    DegenerateOccurrence,
    DomainError,
    InsufficientData,
    NoTrainingData,
    NumericalError,
    PrecipError,
    RangeUnidentifiable,
    SeparationDetected,
)


def window_from_days(day_arrays):
    """A window over consecutive days from (xy, obs, fcst) triples, built
    through a Dataset with one site id per distinct coordinate (per repeat
    of a coordinate within a day, so co-located sites stay apart), numbered
    in order of first appearance."""
    ids, rows = {}, []
    for i, (xy, obs, fcst) in enumerate(day_arrays):
        date = dt.date(2004, 1, 1) + dt.timedelta(days=i)
        repeats = collections.Counter()
        for (x, y), o, f in zip(np.asarray(xy, dtype=float).tolist(), obs, fcst):
            site = ids.setdefault((x, y, repeats[x, y]), f"s{len(ids):05d}")
            repeats[x, y] += 1
            rows.append((site, x, y, date, float(o), float(f)))
    return est.make_window(dataset_from_rows(rows), date + dt.timedelta(days=1), len(day_arrays))


def pooled_window(obs, fcst):
    """One-day window of independent records (xy spread far apart)."""
    n = len(obs)
    xy = np.column_stack([np.arange(n) * 1e5, np.zeros(n)])
    return window_from_days([(xy, obs, fcst)])


def window_days(window):
    """Each day of a window as (xy, obs, fcst) row views, in date order."""
    rows = window.rows
    return [(rows.xy[lo:hi], rows.obs[lo:hi], rows.fcst[lo:hi])
            for lo, hi in zip(rows.offsets[:-1], rows.offsets[1:])]


class TestMakeWindow:
    def _dataset(self, n_dates, n_sites=2):
        rows = []
        for d in range(n_dates):
            for s in range(n_sites):
                rows.append((f"s{s}", float(s), 0.0,
                             dt.date(2004, 1, 1) + dt.timedelta(days=d),
                             float(d % 3), float(s)))
        return dataset_from_rows(rows)

    def test_most_recent_dates(self):
        ds = self._dataset(40)
        w = est.make_window(ds, dt.date(2004, 2, 15), 30)
        # 40 days starting 2004-01-01 end on 2004-02-09.
        assert w.rows.dates == ds.dates[10:]
        assert w.rows.dates[0] == dt.date(2004, 1, 11)
        assert w.rows.dates[-1] == dt.date(2004, 2, 9)
        assert w.date.tolist() == np.repeat(np.arange(30), 2).tolist()

    def test_short_window_takes_all_history(self):
        ds = self._dataset(12)
        w = est.make_window(ds, dt.date(2004, 3, 1), 30)
        assert w.rows.dates == ds.dates
        assert w.obs.tolist() == ds.obs.tolist()

    def test_forecast_cube_root_and_zero_flag(self):
        w = est.make_window(self._dataset(3), dt.date(2004, 2, 1), 3)
        assert w.fcst_cr.tolist() == np.cbrt(w.rows.fcst).tolist() == [0.0, 1.0] * 3
        assert w.zero_flag.tolist() == [True, False] * 3

    def test_no_history(self):
        ds = self._dataset(5)
        with pytest.raises(NoTrainingData):
            est.make_window(ds, dt.date(2003, 1, 1), 30)

    @pytest.mark.parametrize("M", [0, -2])
    def test_nonpositive_length_rejected(self, M):
        with pytest.raises(DomainError):
            est.make_window(self._dataset(5), dt.date(2004, 2, 1), M)


class TestProbitTrend:
    def test_perfect_separation_raises(self):
        # Wet exactly where the forecast exceeds 8: the likelihood rises
        # without bound as the coefficients grow along the separating line.
        rng = np.random.default_rng(3)
        fcst = rng.gamma(1.0, 8.0, size=400)
        fcst[rng.random(400) < 0.3] = 0.0
        obs = np.where(fcst > 8.0, rng.gamma(2.0, 3.0, size=400), 0.0)
        assert 0 < (obs > 0).sum() < 400
        with pytest.raises(SeparationDetected):
            est.fit_probit_trend(pooled_window(obs, fcst))

    def test_no_covariate_effect(self):
        rng = np.random.default_rng(5)
        n = 10_000
        fcst = rng.gamma(2.0, 5.0, size=n)
        fcst[rng.random(n) < 0.4] = 0.0
        obs = (rng.random(n) < 0.5).astype(float)  # independent of fcst
        params, _ = est.fit_probit_trend(pooled_window(obs, fcst))
        assert abs(params.gamma0) < 0.05
        assert abs(params.gamma1) < 0.05
        assert abs(params.gamma2) < 0.05

    def test_recovers_generating_parameters(self):
        rng = np.random.default_rng(1)
        n = 10_000
        fcst_cr = rng.gamma(2.0, 1.0, size=n)
        fcst_cr[rng.random(n) < 0.3] = 0.0
        zero = fcst_cr == 0.0
        mu = 0.2 + 0.8 * fcst_cr - 0.5 * zero
        wet = rng.standard_normal(n) + mu > 0
        obs = np.where(wet, 1.0, 0.0)
        params, _ = est.fit_probit_trend(pooled_window(obs, fcst_cr ** 3))
        assert params.gamma0 == pytest.approx(0.2, abs=0.07)
        assert params.gamma1 == pytest.approx(0.8, abs=0.07)
        assert params.gamma2 == pytest.approx(-0.5, abs=0.07)

    def test_all_wet_rejected(self):
        with pytest.raises(DegenerateOccurrence):
            est.fit_probit_trend(pooled_window(np.ones(20), np.ones(20)))

    def test_constant_indicator_dropped(self):
        # Every forecast nonzero: the indicator carries no contrast and its
        # coefficient is reported as zero.
        rng = np.random.default_rng(2)
        n = 2000
        fcst_cr = rng.gamma(2.0, 1.0, size=n) + 0.1
        wet = rng.standard_normal(n) + 0.5 * fcst_cr - 0.3 > 0
        params, _ = est.fit_probit_trend(pooled_window(wet.astype(float), fcst_cr ** 3))
        assert params.gamma2 == 0.0


def probit_loglik(beta, window):
    """The probit log likelihood sum log Phi(s x'beta) of a window, s = +1
    wet and -1 dry, on (1, fcst^1/3) and the zero flag where beta has three
    coefficients."""
    design = np.column_stack([np.ones_like(window.fcst_cr), window.fcst_cr,
                              window.zero_flag.astype(float)])[:, :len(beta)]
    return float(np.sum(log_ndtr(np.where(window.obs > 0, 1.0, -1.0) * (design @ beta))))


def probit_window(case):
    """Window ``case`` of twelve for the probit oracle: 0-7 hold independent
    records drawn from a probit trend (6 and 7 with no zero forecast, so the
    indicator is dropped), 8-11 are synthetic worlds."""
    if case >= 8:
        ds = dm.synth_generate(dm.SynthSpec(n_sites=10 * case - 65, n_days=20, seed=52 + case))
        return est.make_window(ds, ds.dates[-1] + dt.timedelta(days=1), 20)
    rng = np.random.default_rng(40 + case)
    n = [60, 200, 1000, 5000][case % 4]
    fcst_cr = rng.gamma(2.0, 1.0, size=n)
    if case < 6:
        fcst_cr[rng.random(n) < 0.1 + 0.05 * case] = 0.0
    gamma = rng.normal([0.0, 0.5, -0.4], 0.5)
    wet = rng.standard_normal(n) + gamma[0] + gamma[1] * fcst_cr + gamma[2] * (fcst_cr == 0) > 0
    return pooled_window(np.where(wet, 1.0, 0.0), fcst_cr ** 3)


class TestProbitSearch:
    @pytest.mark.parametrize("case", range(12))
    def test_reaches_scipy_maximum(self, case):
        w = probit_window(case)
        params, diag = est.fit_probit_trend(w)
        dropped = bool(w.zero_flag.all() or not w.zero_flag.any())
        assert dropped is (case in (6, 7))
        beta = [params.gamma0, params.gamma1] + ([] if dropped else [params.gamma2])
        assert not dropped or params.gamma2 == 0.0
        res = optimize.minimize(lambda b: -probit_loglik(b, w), np.zeros(len(beta)),
                                method="BFGS", options={"gtol": 1e-10})
        assert probit_loglik(beta, w) >= -res.fun - 1e-9
        assert 0 < diag["probit_evals"] < est._NEWTON_MAX_STEPS

    @pytest.mark.parametrize("fcst", [np.full(50, 3.0), np.full(50, 0.7),
                                      np.where(np.arange(50) % 2 == 0, 8.0, 0.0)])
    def test_rank_deficient_design_raises(self, fcst):
        # Mixed wet and dry records on a constant forecast, or on one nonzero
        # value whose cube root is 2 minus twice the zero flag: the trend
        # coefficients are not identified, in the probit or the Gamma mean.
        obs = np.where(np.arange(50) % 5 < 2, 2.0, 0.0)
        for fit in (est.fit_probit_trend, est.fit_gamma_mean):
            with pytest.raises(InsufficientData, match="rank-deficient"):
                fit(pooled_window(obs, fcst))

    def test_fit_model_names_the_probit_stage(self):
        obs = np.where(np.arange(50) < 20, 2.0, 0.0)
        with pytest.raises(InsufficientData, match="^stage probit: rank-deficient"):
            est.fit_model(pooled_window(obs, np.full(50, 3.0)))

    def test_separation_with_a_wide_gap_raises(self):
        # Wet exactly where the forecast exceeds 8, with no forecast between
        # 1 and 27: the search stops where the likelihood is flat to
        # rounding, every record on its own side of the trend.
        rng = np.random.default_rng(0)
        fcst = np.concatenate([rng.uniform(0.0, 1.0, 100), rng.uniform(27.0, 60.0, 100)])
        with pytest.raises(SeparationDetected):
            est.fit_probit_trend(pooled_window(np.where(fcst > 8.0, 1.0, 0.0), fcst))


class TestBivariateNormalCdf:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        h, k = rng.normal(scale=2.0, size=(2, 200))
        r = rng.uniform(-0.99, 0.99, size=200)
        got = est.bivariate_normal_cdf(h, k, r)
        for i in range(200):
            ref = stats.multivariate_normal(
                mean=[0.0, 0.0], cov=[[1.0, r[i]], [r[i], 1.0]]).cdf([h[i], k[i]])
            assert got[i] == pytest.approx(ref, abs=1e-12)

    def test_exact_on_the_axes(self):
        r = np.linspace(-0.95, 0.95, 39)
        # Orthant identity at h = k = 0; the general Owen form gives 2/3 at r = 0.5.
        assert np.allclose(est.bivariate_normal_cdf(0.0, 0.0, r),
                           0.25 + np.arcsin(r) / (2 * np.pi), rtol=0, atol=1e-15)
        x = np.linspace(-3.0, 3.0, 13)
        # Independence, and symmetry in the two arguments.
        assert np.allclose(est.bivariate_normal_cdf(x, 0.0, 0.0), 0.5 * ndtr(x),
                           rtol=0, atol=1e-15)
        assert np.array_equal(est.bivariate_normal_cdf(0.0, x, 0.3),
                              est.bivariate_normal_cdf(x, 0.0, 0.3))
        for xi in x:
            ref = stats.multivariate_normal(
                mean=[0.0, 0.0], cov=[[1.0, 0.3], [0.3, 1.0]]).cdf([xi, 0.0])
            assert est.bivariate_normal_cdf(xi, 0.0, 0.3) == pytest.approx(ref, abs=1e-12)

    def test_perfect_correlation_limit(self):
        h = np.array([-1.0, 0.0, 0.4, 1.5, 0.0])
        k = np.array([0.5, 0.7, -0.2, 1.5, 0.0])
        plus = est.bivariate_normal_cdf(h, k, 1.0)
        minus = est.bivariate_normal_cdf(h, k, -1.0)
        assert np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))
        assert np.array_equal(plus, ndtr(np.minimum(h, k)))
        assert np.allclose(minus, np.maximum(ndtr(h) + ndtr(k) - 1.0, 0.0),
                           rtol=0, atol=1e-15)
        # Continuous with the interior.
        assert np.allclose(est.bivariate_normal_cdf(h, k, 1.0 - 1e-12), plus, atol=1e-5)
        assert np.allclose(est.bivariate_normal_cdf(h, k, -1.0 + 1e-12), minus, atol=1e-5)


class TestOccurrenceRange:
    def test_single_site_days_rejected(self):
        w = window_from_days([(np.array([[0.0, 0.0]]), [1.0], [2.0])] * 5)
        trend = tr.OccurrenceTrendParams(0.0, 0.1, 0.0)
        with pytest.raises(RangeUnidentifiable):
            est.fit_occurrence_range(w, trend)

    def test_no_close_pair_rejected(self):
        far = np.array([[0.0, 0.0], [2.0 * est.PAIR_CUTOFF_KM, 0.0]])
        w = window_from_days([(far, [1.0, 0.0], [2.0, 2.0])] * 5)
        trend = tr.OccurrenceTrendParams(0.0, 0.1, 0.0)
        with pytest.raises(RangeUnidentifiable, match="closer than"):
            est.fit_occurrence_range(w, trend)

    def test_colocated_sites_give_finite_range(self):
        # Two sites share a location (correlation exactly 1), and on some
        # days they disagree, which is impossible at every range.
        xy = np.array([[0.0, 0.0], [0.0, 0.0], [15.0, 0.0], [40.0, 0.0]])
        rng = np.random.default_rng(1)
        days = [(xy, (rng.random(4) < 0.5).astype(float), rng.gamma(2.0, 5.0, 4))
                for _ in range(20)]
        trend = tr.OccurrenceTrendParams(0.0, 0.1, 0.0)
        rho, _ = est.fit_occurrence_range(window_from_days(days), trend)
        assert est.RANGE_SEARCH_KM[0] <= rho <= est.RANGE_SEARCH_KM[1]

    def test_recovers_generating_range(self):
        spec = dm.SynthSpec(n_sites=50, n_days=30, rho_km=60.0, seed=7)
        ds = dm.synth_generate(spec)
        w = est.make_window(ds, max(ds.dates) + dt.timedelta(days=1), 30)
        trend = tr.OccurrenceTrendParams(*spec.gamma)
        rho, _ = est.fit_occurrence_range(w, trend)
        assert abs(rho - 60.0) / 60.0 < 0.30

    def test_shuffled_pattern_shrinks_range(self):
        spec = dm.SynthSpec(n_sites=40, n_days=25, rho_km=60.0, seed=8)
        ds = dm.synth_generate(spec)
        w = est.make_window(ds, max(ds.dates) + dt.timedelta(days=1), 25)
        trend = tr.OccurrenceTrendParams(*spec.gamma)
        rho, _ = est.fit_occurrence_range(w, trend)
        rng = np.random.default_rng(0)
        shuffled = window_from_days(
            [(xy, rng.permutation(obs), fcst) for xy, obs, fcst in window_days(w)])
        rho_shuf, _ = est.fit_occurrence_range(shuffled, trend)
        assert rho_shuf < rho


def per_day_close_pairs(window):
    """The occurrence-range pairs built one day at a time from that day's
    coordinates: the oracle for the table-indexed ``TrainingWindow.close_pairs``."""
    first, second, dist, offset = [], [], [], 0
    for xy, obs, _ in window_days(window):
        i, j = np.triu_indices(len(obs), k=1)
        d = rf.pairwise_distances(xy)[i, j]
        close = d < est.PAIR_CUTOFF_KM
        first.append(offset + i[close])
        second.append(offset + j[close])
        dist.append(d[close])
        offset += len(obs)
    return np.concatenate(first), np.concatenate(second), np.concatenate(dist)


class TestClosePairs:
    @pytest.mark.parametrize("seed, drop", [(400, 0.0), (401, 0.1), (402, 0.3)])
    def test_match_per_day_loop_bit_for_bit(self, seed, drop):
        ds = dataset_from_rows(gappy_rows(seed, n_sites=40, n_days=12, drop=drop))
        w = est.make_window(ds, ds.dates[-1], 10)
        got, want = w.close_pairs, per_day_close_pairs(w)
        assert want[2].size > 100
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_colocated_and_absent_sites(self):
        xy = np.array([[0.0, 0.0], [0.0, 0.0], [15.0, 0.0], [40.0, 0.0], [400.0, 0.0]])
        w = window_from_days([(xy, [1.0] * 5, [2.0] * 5), (xy[1:4], [1.0] * 3, [2.0] * 3),
                              (xy[[0, 3, 4]], [1.0] * 3, [2.0] * 3), (xy[4:], [1.0], [2.0])])
        got = w.close_pairs
        assert got[0].tolist() == [0, 0, 0, 1, 1, 2, 5, 5, 6, 8]
        for a, b in zip(got, per_day_close_pairs(w)):
            assert np.array_equal(a, b)


class TestGammaMean:
    def test_noise_free_without_indicator(self):
        fcst_cr = np.linspace(0.5, 3.0, 50)
        y = 1.0 + 2.0 * fcst_cr
        w = pooled_window(y ** 3, fcst_cr ** 3)
        eta = est.fit_gamma_mean(w)
        assert eta == (pytest.approx(1.0), pytest.approx(2.0), 0.0)

    def test_noise_free_with_indicator(self):
        fcst_cr = np.concatenate([np.linspace(0.5, 3.0, 40), np.zeros(10)])
        zero = fcst_cr == 0.0
        y = 1.0 + 2.0 * fcst_cr + 0.5 * zero
        w = pooled_window(y ** 3, fcst_cr ** 3)
        eta = est.fit_gamma_mean(w)
        assert eta[0] == pytest.approx(1.0)
        assert eta[1] == pytest.approx(2.0)
        assert eta[2] == pytest.approx(0.5)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(3)
        n = 5000
        fcst_cr = rng.gamma(2.0, 1.0, size=n)
        fcst_cr[rng.random(n) < 0.3] = 0.0
        zero = fcst_cr == 0.0
        y = 0.5 + 0.9 * fcst_cr + 0.2 * zero + rng.normal(scale=0.3, size=n)
        y = np.maximum(y, 0.01)
        eta = est.fit_gamma_mean(pooled_window(y ** 3, fcst_cr ** 3))
        assert eta[0] == pytest.approx(0.5, abs=0.05)
        assert eta[1] == pytest.approx(0.9, abs=0.05)
        assert eta[2] == pytest.approx(0.2, abs=0.05)

    def test_too_few_wet(self):
        with pytest.raises(InsufficientData):
            est.fit_gamma_mean(pooled_window(np.array([1.0, 2.0, 0.0, 0.0]),
                                             np.ones(4)))


def variance_data(window, eta):
    """The wet cube-root amounts, implied means and forecasts (the cubes of
    their cube roots) that fit_gamma_variance fits, records with a
    nonpositive mean left out."""
    wet = window.obs > 0
    y = np.cbrt(window.obs[wet])
    means = tr.gamma_mean(eta, window.fcst_cr[wet], window.zero_flag[wet])
    usable = means > 0
    return y[usable], means[usable], np.float_power(window.fcst_cr[wet][usable], 3)


def nelder_mead_variance(y, means, fcst_acc):
    """Three-restart projected Nelder-Mead over (log nu0, nu1): the search
    fit_gamma_variance ran before L-BFGS-B, kept as the reference it must
    match or beat."""
    resid_var = max(float(np.var(y - means)), est._MIN_NU0 * 10)

    def neg(params):
        return -est._gamma_loglik(math.exp(params[0]), max(params[1], 0.0),
                                  y, means, fcst_acc)[0]

    best = None
    for start in (
        (math.log(resid_var), 0.0),
        (math.log(resid_var * 0.3), resid_var / max(fcst_acc.mean(), 1e-6)),
        (math.log(resid_var * 3.0), 0.01),
    ):
        res = optimize.minimize(neg, start, method="Nelder-Mead",
                                options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 2000})
        if best is None or res.fun < best.fun:
            best = res
    return max(math.exp(best.x[0]), est._MIN_NU0), max(float(best.x[1]), 0.0)


def decreasing_variance_window(seed, n=2000):
    """Pooled window whose sample variance shrinks as the forecast grows, so
    the constrained optimum sits at nu1 = 0."""
    rng = np.random.default_rng(seed)
    fcst_cr = np.where(rng.random(n) < 0.5, 1.0, 3.0)
    v = np.where(fcst_cr > 2.0, 0.05, 0.6)
    y = rng.gamma(2.0 ** 2 / v, v / 2.0)
    return pooled_window(y ** 3, fcst_cr ** 3)


class TestGammaVariance:
    def test_constant_forecast_matches_grid_search(self):
        # nu1 is unidentified under a constant forecast; compare the fitted
        # nu0 against an independent 1-D grid search on the same likelihood.
        rng = np.random.default_rng(4)
        n = 3000
        m, v = 2.0, 0.4
        y = rng.gamma(m ** 2 / v, v / m, size=n)
        fcst = np.full(n, 8.0)
        w = pooled_window(y ** 3, fcst)
        (nu0, nu1), diag = est.fit_gamma_variance(w, (2.0, 0.0, 0.0))
        assert diag["variance_records_dropped"] == 0
        grid = np.linspace(0.2, 0.8, 601)
        lls = [est._gamma_loglik(g, 0.0, y, np.full(n, m), fcst)[0] for g in grid]
        v_grid = grid[int(np.argmax(lls))]
        # Only the implied total variance nu0 + nu1 * fcst is identified.
        assert abs((nu0 + nu1 * 8.0) - v_grid) / v_grid < 0.05

    def test_decreasing_variance_hits_boundary(self):
        # Sample variance decreasing in the forecast: the constrained
        # optimum sits at nu1 = 0 exactly.
        w = decreasing_variance_window(5)
        (nu0, nu1), _ = est.fit_gamma_variance(w, (2.0, 0.0, 0.0))
        assert nu1 == 0.0
        # Grid-search confirmation that the boundary is optimal.
        data = variance_data(w, (2.0, 0.0, 0.0))
        ll_boundary = est._gamma_loglik(nu0, 0.0, *data)[0]
        ll_interior = est._gamma_loglik(nu0, 0.01, *data)[0]
        assert ll_boundary > ll_interior

    def test_recovers_generating_parameters(self):
        rng = np.random.default_rng(6)
        n = 5000
        fcst_cr = rng.gamma(2.0, 0.8, size=n) + 0.2
        m = 1.0 + 0.8 * fcst_cr
        v = 0.4 + 0.15 * fcst_cr ** 3
        y = rng.gamma(m ** 2 / v, v / m)
        w = pooled_window(y ** 3, fcst_cr ** 3)
        (nu0, nu1), _ = est.fit_gamma_variance(w, (1.0, 0.8, 0.0))
        assert abs(nu0 - 0.4) / 0.4 < 0.20
        assert abs(nu1 - 0.15) / 0.15 < 0.20


class TestVarianceSearch:
    @pytest.mark.parametrize("case", [*range(20), "nu1_boundary"])
    def test_matches_nelder_mead_oracle(self, case):
        if case == "nu1_boundary":
            w, eta = decreasing_variance_window(5), (2.0, 0.0, 0.0)
        else:
            spec = dm.SynthSpec(n_sites=20, n_days=15, seed=100 + case,
                                nu=(0.15, 0.05 * (case % 4)))  # nu1 = 0 in every fourth world
            ds = dm.synth_generate(spec)
            w = est.make_window(ds, ds.dates[-1] + dt.timedelta(days=1), 15)
            eta = est.fit_gamma_mean(w)
        data = variance_data(w, eta)
        nu, diag = est.fit_gamma_variance(w, eta)
        assert diag["variance_converged"] is True
        assert 0 < diag["variance_evals"] < 100
        loglik = est._gamma_loglik(*nu, *data)[0]
        oracle_loglik = est._gamma_loglik(*nelder_mead_variance(*data), *data)[0]
        assert loglik >= oracle_loglik - 1e-6

    @pytest.mark.parametrize("nu", [(0.3, 0.0), (0.12, 0.04), (0.02, 0.3)])
    def test_gradient_matches_central_differences(self, nu):
        spec = dm.SynthSpec(n_sites=20, n_days=15, seed=7)
        w = est.make_window(dm.synth_generate(spec), dt.date(2005, 1, 1), 15)
        data = variance_data(w, spec.eta)
        _, grad, _ = est._gamma_loglik(*nu, *data)
        for i in range(2):
            step = 1e-6 * np.eye(2)[i]
            up = est._gamma_loglik(*(np.array(nu) + step), *data)[0]
            down = est._gamma_loglik(*(np.array(nu) - step), *data)[0]
            assert grad[i] == pytest.approx((up - down) / 2e-6, rel=1e-6, abs=1e-4)


def lbfgsb_variance(y, means, fcst_acc):
    """One L-BFGS-B search (Byrd et al. 1995) over (log nu0, nu1) from
    (residual variance, 0): the search fit_gamma_variance ran before its
    Newton search, kept as a reference it must match or beat."""
    resid_var = max(float(np.var(y - means)), est._MIN_NU0 * 10)

    def neg(params):
        nu0 = math.exp(params[0])
        loglik, grad, _ = est._gamma_loglik(nu0, params[1], y, means, fcst_acc)
        return -loglik, -grad * (nu0, 1.0)

    res = optimize.minimize(neg, (math.log(resid_var), 0.0), jac=True, method="L-BFGS-B",
                            bounds=[(math.log(est._MIN_NU0), None), (0.0, None)])
    return max(math.exp(res.x[0]), est._MIN_NU0), float(res.x[1])


def variance_world(case):
    """A window and its fitted Gamma mean: a 25 x 10 or a 30 x 30 synthetic
    world (nu1 = 0 in every fourth) for an int ``case``, else the pooled
    nu1-boundary window or the 100 x 160 window of criterion 2."""
    if case == "nu1_boundary":
        return decreasing_variance_window(5), (2.0, 0.0, 0.0)
    if case == "100x160":
        sites, days, seed, nu1 = 100, 160, 3, 0.05
    else:
        sites, days = (25, 10) if case % 2 else (30, 30)
        seed, nu1 = 500 + case, 0.05 * (case % 4)
    ds = dm.synth_generate(dm.SynthSpec(n_sites=sites, n_days=days, seed=seed, nu=(0.15, nu1)))
    w = est.make_window(ds, ds.dates[-1] + dt.timedelta(days=1), days)
    return w, est.fit_gamma_mean(w)


class TestNewtonVariance:
    @pytest.mark.parametrize("case", [*range(24), "nu1_boundary", "100x160"])
    def test_matches_or_beats_lbfgsb(self, case):
        w, eta = variance_world(case)
        data = variance_data(w, eta)
        nu, diag = est.fit_gamma_variance(w, eta)
        assert diag["variance_converged"] is True
        assert 0 < diag["variance_evals"] < 20
        assert type(nu[0]) is float and type(nu[1]) is float
        loglik = est._gamma_loglik(*nu, *data)[0]
        assert loglik >= est._gamma_loglik(*lbfgsb_variance(*data), *data)[0] - 1e-9
        if case == "nu1_boundary":
            assert nu[1] == 0.0

    @pytest.mark.parametrize("nu", [(0.3, 0.0), (0.12, 0.04), (0.02, 0.3)])
    def test_hessian_matches_central_differences_of_the_score(self, nu):
        spec = dm.SynthSpec(n_sites=20, n_days=15, seed=7)
        w = est.make_window(dm.synth_generate(spec), dt.date(2005, 1, 1), 15)
        data = variance_data(w, spec.eta)
        hess = est._gamma_loglik(*nu, *data)[2]()
        assert hess[0, 1] == hess[1, 0]
        for i in range(2):
            step = 1e-6 * np.eye(2)[i]
            up = est._gamma_loglik(*(np.array(nu) + step), *data)[1]
            down = est._gamma_loglik(*(np.array(nu) - step), *data)[1]
            assert hess[:, i] == pytest.approx((up - down) / 2e-6, rel=1e-6)

    def test_out_of_steps_reports_unconverged(self, monkeypatch):
        monkeypatch.setattr(est, "_NEWTON_MAX_STEPS", 1)
        w, eta = variance_world(1)
        _, diag = est.fit_gamma_variance(w, eta)
        assert diag["variance_converged"] is False
        assert diag["variance_evals"] == 2

    def test_nonfinite_likelihood_raises(self):
        with pytest.raises(NumericalError, match="likelihood nan"):
            est._newton_max(lambda x: (math.nan, [0.0, 0.0], lambda: [[1.0, 0.0], [0.0, 1.0]]),
                            [0.0, 0.0], [-1.0, 0.0], [math.inf, math.inf])


def record_searches(monkeypatch):
    """Patch est._newton_max to record each likelihood it maximizes; returns
    the list they are appended to, in call order."""
    logliks, newton = [], est._newton_max

    def record(loglik, *args):
        logliks.append(loglik)
        return newton(loglik, *args)

    monkeypatch.setattr(est, "_newton_max", record)
    return logliks


def scipy_bounded_brent(func, lo, hi):
    """SciPy's bounded Brent minimum of ``func`` on [lo, hi] to the range
    tolerance, as (x, func(x)): the reference for the Newton search."""
    res = optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded",
                                   options={"xatol": est._RANGE_XTOL})
    return float(res.x), float(res.fun)


class TestBoundedBrent:
    """The Newton search against SciPy's bounded Brent search on the same
    functions: it reaches Brent's value and lies within its tolerance."""

    @pytest.mark.parametrize("case", range(22))
    def test_equals_scipy_on_amount_likelihoods(self, monkeypatch, case):
        # The last two worlds fit at the lower and the upper search bound.
        r_km = {20: 0.01, 21: 1e5}.get(case, 25.0)
        spec = dm.SynthSpec(n_sites=15 + 10 * (case % 3), n_days=10, r_km=r_km, seed=300 + case)
        ds = dm.synth_generate(spec)
        w = est.make_window(ds, ds.dates[-1] + dt.timedelta(days=1), 10)
        logliks = record_searches(monkeypatch)
        r_hat, diag = est.fit_amount_range(w, spec.eta, spec.nu)
        [loglik] = logliks
        x, value = scipy_bounded_brent(lambda x: -loglik([x])[0],
                                       *(math.log(b) for b in est.RANGE_SEARCH_KM))
        assert diag["r_converged"] is True
        assert abs(math.log(r_hat) - x) <= est._RANGE_XTOL
        assert loglik([math.log(r_hat)])[0] >= -value
        if case >= 20:
            assert diag["r_at_bound"]

    # Each function gives a value to minimize and its first two derivatives.
    @pytest.mark.parametrize("func, lo, hi", [
        (lambda x: ((x - 1.3) ** 2, 2.0 * (x - 1.3), 2.0), 0.0, 7.6),
        (lambda x: (math.exp(x) - 2.0 * x, math.exp(x) - 2.0, math.exp(x)), -3.0, 2.0),
        (lambda x: (math.cos(x) * math.exp(-x), -(math.sin(x) + math.cos(x)) * math.exp(-x),
                    2.0 * math.sin(x) * math.exp(-x)), 0.0, 7.6),
        (lambda x: (math.hypot(1.0, x - 2.0), (x - 2.0) / math.hypot(1.0, x - 2.0),
                    math.hypot(1.0, x - 2.0) ** -3), 0.0, 7.6),
        (lambda x: (x, 1.0, 0.0), 0.0, 7.6),
        (lambda x: (-x, -1.0, 0.0), 0.0, 7.6),
        (lambda x: (0.0, 0.0, 0.0), -1.0, 1.0),
    ])
    def test_equals_scipy_on_analytic_functions(self, func, lo, hi):
        # From mid-interval; cos(x) exp(-x) starts where it is concave.
        def loglik(x):
            value, first, second = func(x[0])
            return -value, [-first], lambda: [[second]]

        (x,), _, converged = est._newton_max(loglik, [0.5 * (lo + hi)], [lo], [hi])
        ref_x, ref_value = scipy_bounded_brent(lambda x: func(x)[0], lo, hi)
        assert converged is True
        assert func(x)[0] <= ref_value
        assert abs(x - ref_x) <= est._RANGE_XTOL or func(x)[0] == ref_value


class TestRangeSearch:
    @staticmethod
    def _grid_argmax(objective):
        """Arg max of objective over log RANGE_SEARCH_KM: a 400-point grid,
        then a 1e-4 grid around its best point."""
        lo, hi = (math.log(b) for b in est.RANGE_SEARCH_KM)
        coarse = np.linspace(lo, hi, 400)
        best = coarse[int(np.argmax([objective(x) for x in coarse]))]
        step = coarse[1] - coarse[0]
        fine = np.arange(max(best - step, lo), min(best + step, hi), 1e-4)
        return fine[int(np.argmax([objective(x) for x in fine]))]

    @pytest.mark.parametrize("seed", range(3))
    def test_fits_land_on_dense_grid_maximum(self, monkeypatch, seed):
        # Records the likelihood each Newton search maximizes: the probit's,
        # the occurrence range's, then the amount range's.
        logliks = record_searches(monkeypatch)
        spec = dm.SynthSpec(n_sites=20, n_days=12, seed=200 + seed)
        w = est.make_window(dm.synth_generate(spec), dt.date(2005, 1, 1), 12)
        trend, _ = est.fit_probit_trend(w)
        rho, rho_diag = est.fit_occurrence_range(w, trend)
        r_hat, r_diag = est.fit_amount_range(w, spec.eta, spec.nu)
        for fitted, loglik, evals in ((rho, logliks[1], rho_diag["rho_evals"]),
                                      (r_hat, logliks[2], r_diag["r_evals"])):
            objective = lambda x: loglik([x])[0]  # noqa: E731
            assert abs(math.log(fitted) - self._grid_argmax(objective)) <= est._RANGE_XTOL
            assert 0 < evals < 40

    def test_newton_out_of_steps_reports_unconverged(self, monkeypatch):
        spec = dm.SynthSpec(n_sites=20, n_days=12, seed=200)
        w = est.make_window(dm.synth_generate(spec), dt.date(2005, 1, 1), 12)
        trend, _ = est.fit_probit_trend(w)  # a probit out of steps raises
        monkeypatch.setattr(est, "_NEWTON_MAX_STEPS", 1)
        _, diag = est.fit_occurrence_range(w, trend)
        assert diag["rho_converged"] is False
        assert diag["rho_evals"] >= 2

    def test_amount_newton_out_of_steps_reports_unconverged(self, monkeypatch):
        monkeypatch.setattr(est, "_NEWTON_MAX_STEPS", 1)
        spec = dm.SynthSpec(n_sites=20, n_days=12, seed=200)
        w = est.make_window(dm.synth_generate(spec), dt.date(2005, 1, 1), 12)
        _, diag = est.fit_amount_range(w, spec.eta, spec.nu)
        assert diag["r_converged"] is False
        assert diag["r_evals"] >= 2

    @pytest.mark.parametrize("seed", range(900, 912))
    def test_fit_verify_windows_converge_off_the_bounds(self, seed):
        # The windows of the benchmark's fit_verify workload, which fails a
        # fit whose range sits at a bound: 25 sites with a tenth of the
        # site-days missing at M = 10, and 30 complete sites at M = 30.
        gappy = dataset_from_rows(gappy_rows(seed, n_sites=25, n_days=11))
        complete = dm.synth_generate(dm.SynthSpec(n_sites=30, n_days=31, seed=seed))
        for ds, M in ((gappy, 10), (complete, 30)):
            diag = est.fit_model(est.make_window(ds, ds.dates[-1], M)).diagnostics
            for name in ("rho", "r"):
                assert diag[f"{name}_converged"] is True
                assert diag[f"{name}_at_bound"] is False
                assert diag[f"{name}_evals"] <= 20

    def test_nonfinite_likelihood_raises(self):
        with pytest.raises(NumericalError, match="likelihood nan"):
            est._newton_max(lambda x: (math.nan, [0.0], lambda: [[1.0]]), [0.0], [-1.0], [1.0])


def quadratic(curv, peak):
    """The concave quadratic -(x - peak)' curv (x - peak) / 2 in the form of
    est._newton_max: its value, score and a function for its curvature."""
    def loglik(x):
        dev = np.subtract(x, peak)
        score = -np.asarray(curv) @ dev
        return float(score @ dev / 2), score.tolist(), lambda: curv

    return loglik


class TestNewtonMax:
    def test_free_quadratic_in_one_newton_step(self):
        x, evals, converged = est._newton_max(quadratic([[2.0, 0.8], [0.8, 1.0]], [-1.0, 2.0]),
                                              [0.0, 1.0], [-math.inf] * 2, [math.inf] * 2)
        assert (evals, converged) == (2, True)
        assert x == pytest.approx([-1.0, 2.0], abs=1e-12)

    def test_maximum_past_a_lower_bound(self):
        # The free maximum (-1, 2) lies below x0 = 0, and the score in x0
        # still points below it at (0, 1.2), the maximum in x1 given x0 = 0.
        x, evals, converged = est._newton_max(quadratic([[2.0, 0.8], [0.8, 1.0]], [-1.0, 2.0]),
                                              [3.0, -4.0], [0.0, -math.inf], [math.inf] * 2)
        assert converged is True and 0 < evals < 20
        assert x[0] == 0.0
        assert x[1] == pytest.approx(1.2, abs=1e-12)

    def test_maximum_past_the_upper_bound(self):
        x, _, converged = est._newton_max(quadratic([[2.0]], [5.0]), [0.5], [0.0], [2.0])
        assert converged is True
        assert x == [2.0]

    def test_start_with_indefinite_curvature(self):
        # A Gaussian bump: minus its Hessian, exp(-|x|^2 / 2) (I - x x'), has
        # the eigenvalue -1.5 exp(-1.25) along x at the start (1.5, 0.5).
        def loglik(x):
            x = np.asarray(x)
            value = math.exp(-0.5 * float(x @ x))
            curv = value * (np.eye(2) - np.outer(x, x))
            return value, (-value * x).tolist(), curv.tolist

        curv = loglik([1.5, 0.5])[2]()
        assert curv[0][0] * curv[1][1] - curv[0][1] ** 2 < 0.0
        x, _, converged = est._newton_max(loglik, [1.5, 0.5], [-math.inf] * 2, [math.inf] * 2)
        assert converged is True
        assert np.abs(x).max() < 1e-4

    @pytest.mark.parametrize("nonfinite", [math.nan, math.inf])
    def test_nonfinite_trial_is_halved(self, nonfinite):
        # -1/x - x, maximal at x = 1, is not finite for x <= 0. From x = 2 the
        # capped Newton step lands on 0, and half of it on the maximum.
        curvatures = []

        def loglik(x):
            (x,) = x
            if x <= 0.0:
                return nonfinite, [math.nan], None

            def curvature():
                curvatures.append(x)
                return [[2.0 / x ** 3]]

            return -1.0 / x - x, [1.0 / x ** 2 - 1.0], curvature

        assert est._newton_max(loglik, [2.0], [-math.inf], [math.inf]) == ([1.0], 3, True)
        assert curvatures == [2.0, 1.0]

    def test_out_of_steps_reports_unconverged(self, monkeypatch):
        monkeypatch.setattr(est, "_NEWTON_MAX_STEPS", 1)
        assert est._newton_max(quadratic([[2.0]], [10.0]), [0.0], [-math.inf], [math.inf]) \
            == ([2.0], 2, False)


class TestPairLoglik:
    @staticmethod
    def _pairs(seed):
        """The occurrence-range pairs of a synthetic window, plus three pairs
        constant in the range: a co-located concordant pair, a co-located
        discordant pair and a discordant pair 10 km apart, both floored."""
        spec = dm.SynthSpec(n_sites=20, n_days=12, seed=seed)
        w = est.make_window(dm.synth_generate(spec), dt.date(2005, 1, 1), 12)
        first, second, dist = w.close_pairs
        sign = np.where(w.obs > 0, 1.0, -1.0)
        mean = sign * tr.occurrence_trend(est.fit_probit_trend(w)[0], w.fcst_cr, w.zero_flag)
        return (np.append(mean[first], [0.3, 0.3, -40.0]),
                np.append(mean[second], [0.5, -0.3, 2.0]),
                np.append(sign[first] * sign[second], [1.0, -1.0, -1.0]),
                np.append(dist, [0.0, 0.0, 10.0]))

    @pytest.mark.parametrize("seed", [7, 8])
    def test_derivatives_match_central_differences(self, seed):
        h, k, sign_product, dist = self._pairs(seed)
        tiny = np.finfo(float).tiny
        special = est.bivariate_normal_cdf(h[-3:], k[-3:],
                                           sign_product[-3:] * np.exp(-dist[-3:] / 35.0))
        assert special[0] > tiny and (special[1:] <= tiny).all()
        loglik = est._pair_loglik(h, k, sign_product, dist)

        def differences(x, delta):
            up, mid, down = (loglik([x + t])[0] for t in (delta, 0.0, -delta))
            return np.array([(up - down) / (2 * delta), -(up - 2 * mid + down) / delta ** 2])

        for x in np.log([5.0, 10.0, 35.0, 120.0, 500.0]):
            _, (score,), curvature = loglik([x])
            (curvature,), = curvature()
            # Central differences with one Richardson step: O(delta^4) error.
            numeric = (4 * differences(x, 5e-3) - differences(x, 1e-2)) / 3
            assert score == pytest.approx(numeric[0], rel=1e-6)
            assert curvature == pytest.approx(numeric[1], rel=1e-6)

    def test_constant_pairs_add_nothing(self):
        h, k, sign_product, dist = self._pairs(7)
        full = est._pair_loglik(h, k, sign_product, dist)
        bare = est._pair_loglik(h[:-3], k[:-3], sign_product[:-3], dist[:-3])
        for x in np.log([5.0, 35.0, 500.0]):
            (_, full_score, full_curvature), (_, bare_score, bare_curvature) = full([x]), bare([x])
            assert full_score == pytest.approx(bare_score, rel=1e-12)
            assert full_curvature()[0] == pytest.approx(bare_curvature()[0], rel=1e-12)


def mvn_log_density(dev, corr_matrix):
    """Summed log density of deviations from the mean under a multivariate
    normal with the given correlation; ``dev`` is one (k,) vector or (n, k)
    rows, which share one Cholesky factor."""
    dev = np.atleast_2d(np.asarray(dev, dtype=float))
    n, k = dev.shape
    if corr_matrix.shape != (k, k):
        raise DomainError("dimension mismatch")
    chol = rf.cholesky_pd(corr_matrix)
    sol = linalg.solve_triangular(chol, dev.T, lower=True)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return float(-0.5 * (n * (k * np.log(2.0 * np.pi) + logdet) + np.sum(sol ** 2)))


class TestMvnLogDensity:
    def test_standard_normal_origin(self):
        # Independent oracle: -0.5 * log(2 pi) per dimension at the mean.
        val = mvn_log_density(np.zeros(3), np.eye(3))
        assert val == pytest.approx(-1.5 * np.log(2 * np.pi), abs=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        xy = rng.uniform(0, 100, size=(5, 2))
        corr = rf.correlation_matrix(xy, rf.ExpCorrelation(40.0))
        x = rng.standard_normal(5)
        mean = rng.standard_normal(5)
        expected = stats.multivariate_normal.logpdf(x, mean=mean, cov=corr)
        assert mvn_log_density(x - mean, corr) == pytest.approx(expected, abs=1e-10)

    def test_rows_sum_their_densities(self):
        rng = np.random.default_rng(9)
        corr = rf.correlation_matrix(rng.uniform(0, 100, size=(4, 2)), rf.ExpCorrelation(30.0))
        dev = rng.standard_normal((6, 4))
        expected = stats.multivariate_normal.logpdf(dev, cov=corr).sum()
        assert mvn_log_density(dev, corr) == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            mvn_log_density(np.zeros(2), np.eye(3))


LOG_RANGES = np.log([1.0, 4.0, 25.0, 150.0, 2000.0])


def pair_log_density(z1, z2, dist, log_range):
    """Summed mvn_log_density of each pair of scores under the exponential
    correlation of its distance: the oracle for the amount likelihood."""
    r = np.exp(-np.asarray(dist) / math.exp(log_range))
    return sum(mvn_log_density([a, b], np.array([[1.0, c], [c, 1.0]]))
               for a, b, c in zip(z1, z2, r))


class TestGaussPairLoglik:
    @staticmethod
    def _pairs(seed):
        """Scores of 300 pairs 0.5 to 100 km apart, correlated as a field
        with a 25 km range correlates them."""
        rng = np.random.default_rng(seed)
        dist = rng.uniform(0.5, est.PAIR_CUTOFF_KM, 300)
        r = np.exp(-dist / 25.0)
        z1 = rng.standard_normal(300)
        return z1, r * z1 + np.sqrt(1.0 - r * r) * rng.standard_normal(300), dist

    @pytest.mark.parametrize("seed", [7, 8])
    def test_derivatives_match_central_differences(self, seed):
        loglik = est._gauss_pair_loglik(*self._pairs(seed))

        def differences(x, delta):
            up, mid, down = (loglik([x + t])[0] for t in (delta, 0.0, -delta))
            return np.array([(up - down) / (2 * delta), -(up - 2 * mid + down) / delta ** 2])

        for x in LOG_RANGES:
            _, (score,), curvature = loglik([x])
            (curvature,), = curvature()
            # Central differences with one Richardson step: O(delta^4) error.
            numeric = (4 * differences(x, 5e-3) - differences(x, 1e-2)) / 3
            assert score == pytest.approx(numeric[0], rel=1e-6, abs=1e-6 * abs(curvature))
            assert curvature == pytest.approx(numeric[1], rel=1e-6)

    def test_value_is_summed_pair_density(self):
        z1, z2, dist = self._pairs(7)
        loglik = est._gauss_pair_loglik(z1, z2, dist)
        for x in LOG_RANGES:
            assert loglik([x])[0] == pytest.approx(pair_log_density(z1, z2, dist, x), rel=1e-12)


def per_day_amount_pairs(window, eta, nu):
    """The amount-range pairs built one day at a time: the Gaussian scores
    of each day's kept records (wet, with a positive implied mean) and their
    pairs at distinct sites closer than PAIR_CUTOFF_KM, as (z1, z2, dist):
    the oracle for the pairs ``est.fit_amount_range`` takes from
    ``TrainingWindow.close_pairs``."""
    coeffs = tr.GammaCoeffs(*eta, *nu)
    z1, z2, dist = [], [], []
    for xy, obs, fcst in window_days(window):
        fcst_cr, zero_flag = np.cbrt(fcst), fcst == 0.0
        keep = (obs > 0) & (tr.gamma_mean(eta, fcst_cr, zero_flag) > 0)
        alpha, beta, _ = tr.gamma_marginals(coeffs, fcst_cr[keep], zero_flag[keep])
        z = tr.gaussian_scores(np.cbrt(obs[keep]), alpha, beta)
        i, j = np.triu_indices(z.size, k=1)
        d = rf.pairwise_distances(xy[keep])[i, j]
        use = (d < est.PAIR_CUTOFF_KM) & (d > 0.0)
        z1.append(z[i[use]])
        z2.append(z[j[use]])
        dist.append(d[use])
    return np.concatenate(z1), np.concatenate(z2), np.concatenate(dist)


def assert_amount_pairs_match_oracle(monkeypatch, window, eta, nu):
    """fit_amount_range's likelihood and pair count against the per-day
    oracle; returns the pair count."""
    logliks = record_searches(monkeypatch)
    _, diag = est.fit_amount_range(window, eta, nu)
    z1, z2, dist = per_day_amount_pairs(window, eta, nu)
    assert diag["r_pairs"] == dist.size
    for x in LOG_RANGES:
        assert logliks[0]([x])[0] == pytest.approx(pair_log_density(z1, z2, dist, x),
                                                   rel=1e-12, abs=0.0)
    return diag["r_pairs"]


class TestAmountPairs:
    @pytest.mark.parametrize("seed", range(4))
    def test_gappy_window_matches_per_day_oracle(self, monkeypatch, seed):
        # One site-day in ten missing, so wet counts and geometries vary.
        spec = dm.SynthSpec(n_sites=25, n_days=10, seed=300 + seed)
        rng = np.random.default_rng(seed)
        rows = [row for row in dataset_rows(dm.synth_generate(spec)) if rng.random() >= 0.1]
        ds = dataset_from_rows(rows)
        w = est.make_window(ds, ds.dates[-1] + dt.timedelta(days=1), 10)
        assert assert_amount_pairs_match_oracle(monkeypatch, w, spec.eta, spec.nu) > 100

    def test_nonpositive_means_and_single_wet_days(self, monkeypatch):
        # With eta0 = -1 the implied mean is nonpositive where the forecast
        # cube root is at most 2, or the forecast is zero: those wet records
        # drop, leaving one pair on day 1, none on day 2 (one kept site),
        # three on day 3, one on day 4 and none on days 5 and 6.
        eta, nu = (-1.0, 0.5, 0.2), (0.3, 0.02)
        xy = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 40.0], [25.0, 35.0]])
        w = window_from_days([
            (xy, [2.0, 5.0, 0.0, 3.0], [27.0, 64.0, 1.0, 0.5]),
            (xy[:3], [1.0, 7.0, 3.0], [1.0, 27.0, 8.0]),
            (xy[1:], [4.0, 2.0, 6.0], [30.0, 125.0, 40.0]),
            (xy[:2], [3.0, 1.0], [50.0, 20.0]),
            (xy[:2], [3.0, 1.0], [0.0, 0.0]),
            (xy, [0.0, 0.0, 0.0, 0.0], [9.0, 9.0, 9.0, 9.0]),
        ])
        assert assert_amount_pairs_match_oracle(monkeypatch, w, eta, nu) == 5

    def test_colocated_pair_left_out(self, monkeypatch):
        # The co-located pair is correlated 1 at every range; only the pair
        # 61 km apart enters, and without it the range is unidentifiable.
        far = np.array([[0.0, 0.0], [60.0, 10.0]])
        same = np.array([[5.0, 5.0], [5.0, 5.0]])
        days = [(far, [2.0, 5.0], [3.0, 4.0]), (same, [1.0, 6.0], [2.0, 3.0])]
        eta, nu = (1.0, 0.5, 0.2), (0.3, 0.02)
        assert assert_amount_pairs_match_oracle(
            monkeypatch, window_from_days(days), eta, nu) == 1
        with pytest.raises(RangeUnidentifiable, match="no same-day pair of wet sites"):
            est.fit_amount_range(window_from_days(days[1:]), eta, nu)


class TestFitWarnings:
    def test_unconverged_variance_warns(self, caplog):
        model = est.FittedModel.from_text(
            "gamma0 = 0\ngamma1 = 0.4\ngamma2 = -0.4\nrho_km = 30\neta0 = 1.5\n"
            "eta1 = 0.8\neta2 = 0.4\nnu0 = 0.15\nnu1 = 0.05\nr_km = 20\n"
            "diag.variance_converged = False\ndiag.variance_evals = 57\n")
        with caplog.at_level("WARNING", logger="precipfield"):
            vf.warn_fit_diagnostics(model, dt.date(2004, 2, 1), 10)
        [record] = caplog.records
        assert record.getMessage().startswith("2004-02-01 M=10: the Gamma variance search")
        assert "after 57 evaluations" in record.getMessage()

    def test_unconverged_occurrence_range_warns(self, caplog):
        model = est.FittedModel.from_text(
            "gamma0 = 0\ngamma1 = 0.4\ngamma2 = -0.4\nrho_km = 30\neta0 = 1.5\n"
            "eta1 = 0.8\neta2 = 0.4\nnu0 = 0.15\nnu1 = 0.05\nr_km = 20\n"
            "diag.rho_converged = False\ndiag.rho_evals = 51\n")
        with caplog.at_level("WARNING", logger="precipfield"):
            vf.warn_fit_diagnostics(model, dt.date(2004, 2, 1), 10)
        [record] = caplog.records
        assert record.getMessage().startswith("2004-02-01 M=10: the occurrence-range search")
        assert "after 51 evaluations at rho_km = 30.0" in record.getMessage()

    def test_unconverged_amount_range_warns(self, caplog):
        model = est.FittedModel.from_text(
            "gamma0 = 0\ngamma1 = 0.4\ngamma2 = -0.4\nrho_km = 30\neta0 = 1.5\n"
            "eta1 = 0.8\neta2 = 0.4\nnu0 = 0.15\nnu1 = 0.05\nr_km = 20\n"
            "diag.r_converged = False\ndiag.r_evals = 51\n")
        with caplog.at_level("WARNING", logger="precipfield"):
            vf.warn_fit_diagnostics(model, dt.date(2004, 2, 1), 10)
        [record] = caplog.records
        assert record.getMessage().startswith("2004-02-01 M=10: the amount-range search")
        assert "after 51 evaluations at r_km = 20.0" in record.getMessage()

    def test_every_warning_line(self, caplog):
        # Both ranges at a bound share one line; each unconverged search,
        # the variance's too, has its own, in fit order.
        model = est.FittedModel.from_text(
            "gamma0 = 0\ngamma1 = 0.4\ngamma2 = -0.4\nrho_km = 30\neta0 = 1.5\n"
            "eta1 = 0.8\neta2 = 0.4\nnu0 = 0.15\nnu1 = 0.05\nr_km = 20\n"
            "diag.rho_at_bound = True\ndiag.r_at_bound = True\n"
            "diag.rho_converged = False\ndiag.rho_evals = 51\n"
            "diag.r_converged = False\ndiag.r_evals = 52\n"
            "diag.variance_converged = False\ndiag.variance_evals = 57\n")
        with caplog.at_level("WARNING", logger="precipfield"):
            vf.warn_fit_diagnostics(model, dt.date(2004, 2, 1), 10)
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", "2004-02-01 M=10: rho_km = 30.0, r_km = 20.0 at the search bound "
                        "(1.0, 2000.0) km; using it anyway"),
            ("WARNING", "2004-02-01 M=10: the occurrence-range search stopped unconverged "
                        "after 51 evaluations at rho_km = 30.0; using it anyway"),
            ("WARNING", "2004-02-01 M=10: the amount-range search stopped unconverged "
                        "after 52 evaluations at r_km = 20.0; using it anyway"),
            ("WARNING", "2004-02-01 M=10: the Gamma variance search stopped unconverged "
                        "after 57 evaluations at nu0 = 0.15, nu1 = 0.05; using it anyway"),
        ]

    def test_converged_fit_is_quiet(self, caplog):
        spec = dm.SynthSpec(n_sites=20, n_days=15, seed=12)
        ds = dm.synth_generate(spec)
        model = est.fit_model(est.make_window(ds, ds.dates[-1] + dt.timedelta(days=1), 15))
        with caplog.at_level("WARNING", logger="precipfield"):
            vf.warn_fit_diagnostics(model, ds.dates[-1], 15)
        assert not caplog.records


class TestAmountRange:
    def test_no_multiwet_day_rejected(self):
        w = window_from_days(
            [(np.array([[0.0, 0.0], [50.0, 0.0]]), [4.0, 0.0], [3.0, 3.0])] * 4
        )
        with pytest.raises(RangeUnidentifiable):
            est.fit_amount_range(w, (1.0, 0.5, 0.0), (0.3, 0.0))

    def test_recovers_generating_range(self):
        spec = dm.SynthSpec(n_sites=50, n_days=30, r_km=40.0, seed=9)
        ds = dm.synth_generate(spec)
        w = est.make_window(ds, max(ds.dates) + dt.timedelta(days=1), 30)
        r_hat, _ = est.fit_amount_range(w, spec.eta, spec.nu)
        assert abs(r_hat - 40.0) / 40.0 < 0.25

    def test_shuffled_amounts_shrink_range(self):
        spec = dm.SynthSpec(n_sites=40, n_days=25, r_km=40.0, seed=10)
        ds = dm.synth_generate(spec)
        w = est.make_window(ds, max(ds.dates) + dt.timedelta(days=1), 25)
        r_hat, _ = est.fit_amount_range(w, spec.eta, spec.nu)
        rng = np.random.default_rng(0)
        shuffled = window_from_days(
            [(xy, rng.permutation(obs), fcst) for xy, obs, fcst in window_days(w)])
        r_shuf, _ = est.fit_amount_range(shuffled, spec.eta, spec.nu)
        assert r_shuf < r_hat


class TestFitModel:
    def test_deterministic(self):
        spec = dm.SynthSpec(n_sites=20, n_days=15, seed=11)
        ds = dm.synth_generate(spec)
        w = est.make_window(ds, max(ds.dates) + dt.timedelta(days=1), 15)
        a = est.fit_model(w)
        b = est.fit_model(w)
        assert a.to_text() == b.to_text()

    def test_reads_the_forecast_through_its_cube_root(self):
        # A forecast and the cube of its cube root differ in the last bit for
        # some values, but share one cube root and so must fit one model.
        ds = dm.synth_generate(dm.SynthSpec(n_sites=20, n_days=30, seed=5))
        cubed = np.float_power(np.cbrt(ds.fcst), 3)
        assert (cubed != ds.fcst).any() and (np.cbrt(cubed) == np.cbrt(ds.fcst)).all()
        twin = dataset_from_rows([(*row[:5], f)
                                  for row, f in zip(dataset_rows(ds), cubed.tolist())])
        valid = ds.dates[-1] + dt.timedelta(days=1)
        texts = [est.fit_model(est.make_window(d, valid, 30)).to_text() for d in (ds, twin)]
        assert texts[0] == texts[1]

    def test_all_dry_fails_atomically(self):
        w = pooled_window(np.zeros(30), np.linspace(0, 5, 30))
        with pytest.raises(DegenerateOccurrence, match="probit"):
            est.fit_model(w)

    def test_diagnostics_present(self):
        spec = dm.SynthSpec(n_sites=20, n_days=15, seed=12)
        ds = dm.synth_generate(spec)
        w = est.make_window(ds, max(ds.dates) + dt.timedelta(days=1), 15)
        model = est.fit_model(w)
        diag = model.diagnostics
        for key in ("probit_evals", "rho_evals", "r_evals", "variance_evals"):
            assert isinstance(diag[key], int) and diag[key] > 0
        assert diag["variance_converged"] is True
        assert diag["rho_converged"] is True
        assert diag["r_converged"] is True
        assert diag["r_pairs"] > 0
        assert diag["min_training_mean"] > 0
        assert diag["n_wet_records"] > 0

    def test_diagnostics_round_trip(self):
        spec = dm.SynthSpec(n_sites=20, n_days=15, seed=12)
        ds = dm.synth_generate(spec)
        w = est.make_window(ds, max(ds.dates) + dt.timedelta(days=1), 15)
        model = est.fit_model(w)
        diag = model.diagnostics
        assert diag["occurrence_pairs"] == int(w.close_pairs[2].size) > 0
        assert diag["rho_at_bound"] is False and diag["r_at_bound"] is False
        back = est.FittedModel.from_text(model.to_text())
        assert back.diagnostics["occurrence_pairs"] == diag["occurrence_pairs"]
        assert back.diagnostics["rho_at_bound"] is False
        assert back.diagnostics["r_at_bound"] is False
        assert back.diagnostics["variance_converged"] is True
        assert back.diagnostics["rho_converged"] is True
        assert back.diagnostics["r_converged"] is True
        assert back.diagnostics["probit_evals"] == diag["probit_evals"]
        for key in ("probit_evals", "variance_evals", "occurrence_pairs", "r_pairs"):
            assert type(back.diagnostics[key]) is int, key
        assert type(back.diagnostics["min_training_mean"]) is float
        assert back.to_text() == model.to_text()

    def test_range_at_search_bound_flagged(self):
        # Every wet day is wet everywhere: the occurrence likelihood grows
        # with the range up to the end of the search interval.
        rng = np.random.default_rng(0)
        xy = np.column_stack([np.arange(6) * 20.0, np.zeros(6)])
        days = [(xy, rng.gamma(2.0, 5.0, 6) if i % 2 == 0 else np.zeros(6),
                 rng.gamma(2.0, 5.0, 6)) for i in range(30)]
        model = est.fit_model(window_from_days(days))
        assert model.diagnostics["occurrence_pairs"] == 30 * 14  # one pair is 100 km apart
        assert model.diagnostics["rho_at_bound"] is True
        assert model.rho.range_km > 0.99 * est.RANGE_SEARCH_KM[1]


def gappy_rows(seed, n_sites=15, n_days=20, drop=0.1):
    """The rows of a synthetic world with a seeded tenth of its site-days
    missing."""
    rng = np.random.default_rng(seed)
    rows = dataset_rows(dm.synth_generate(dm.SynthSpec(n_sites=n_sites, n_days=n_days,
                                                       seed=seed)))
    return [row for row in rows if rng.random() >= drop]


def shuffle_rows(rows):
    return [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]


def cut_to_window(rows, M=12):
    kept = sorted({row[3] for row in rows})[-M - 1:]
    return [row for row in rows if row[3] in kept]


def moved(rows, move):
    return [(s, *move(x, y), *rest) for s, x, y, *rest in rows]


# Transformations of a dataset that a fit must not see: (name, rows -> rows,
# whether the model file stays byte-identical, or only equal to within 1e-9
# relative in its ranges, where distances move in their last bits). A
# quarter turn keeps every distance's bits: dx and dy only swap.
METAMORPHS = [
    ("shuffled rows", shuffle_rows, True),
    ("renamed sites in sort order", lambda rows: [("site-" + s, *rest) for s, *rest in rows],
     True),
    ("cut to the window and valid date", cut_to_window, True),
    ("translated", lambda rows: moved(rows, lambda x, y: (x + 1234.5, y - 678.25)), False),
    ("rotated", lambda rows: moved(rows, lambda x, y: (-y, x)), True),
]


@pytest.mark.parametrize("seed", [21, 22])
@pytest.mark.parametrize("name, transform, identical", METAMORPHS,
                         ids=[m[0] for m in METAMORPHS])
def test_fit_sees_only_distances_and_values(seed, name, transform, identical):
    rows = gappy_rows(seed)

    def fit(rows):
        ds = dataset_from_rows(rows)
        return est.fit_model(est.make_window(ds, ds.dates[-1], 12))

    model, other = fit(rows), fit(transform(rows))
    if identical:
        assert other.to_text() == model.to_text()
        return
    ranges = [(m.rho.range_km, m.r.range_km) for m in (model, other)]
    assert ranges[1] == pytest.approx(ranges[0], rel=1e-9, abs=0.0)
    for part in ("occurrence", "amount"):
        assert getattr(other, part) == getattr(model, part)


class TestModelSerialization:
    def test_round_trip(self):
        model = est.FittedModel(
            occurrence=tr.OccurrenceTrendParams(0.123456789012345, -0.7, 0.0),
            rho=rf.ExpCorrelation(61.73),
            amount=tr.GammaCoeffs(1.5, 0.8, 0.4, 0.15, 0.05),
            r=rf.ExpCorrelation(24.9999999),
            diagnostics={"n_wet_records": 123, "min_training_mean": 0.07},
        )
        back = est.FittedModel.from_text(model.to_text())
        assert back.occurrence.gamma0 == pytest.approx(0.123456789012345, rel=1e-12)
        assert back.rho.range_km == pytest.approx(61.73, rel=1e-12)
        assert back.r.range_km == pytest.approx(24.9999999, rel=1e-12)
        assert back.amount.nu1 == pytest.approx(0.05, rel=1e-12)
        assert back.diagnostics["min_training_mean"] == pytest.approx(0.07)

    def test_comments_and_blanks_ignored(self):
        model = est.FittedModel(
            occurrence=tr.OccurrenceTrendParams(0.0, 0.4, -0.4),
            rho=rf.ExpCorrelation(35.0),
            amount=tr.GammaCoeffs(1.5, 0.8, 0.4, 0.15, 0.05),
            r=rf.ExpCorrelation(25.0),
        )
        text = "# fitted model\n\n" + model.to_text()
        back = est.FittedModel.from_text(text)
        assert back.rho.range_km == 35.0


class TestWindowSweep:
    def test_skipped_cells_counted(self):
        # Valid date with only dry history: fit fails, cell is skipped.
        rows = []
        for d in range(12):
            for s in range(3):
                rows.append((f"s{s}", float(s * 10), 0.0,
                             dt.date(2004, 1, 1) + dt.timedelta(days=d), 0.0, 2.0))
        ds = dataset_from_rows(rows)
        rows = vf.window_sweep(ds, [dt.date(2004, 1, 12)], [10], 5, seed=0)
        assert rows[0]["n_skipped"] == 1
        assert rows[0]["n_cases"] == 0
        assert math.isnan(rows[0]["mean_crps"])

    def test_nonpositive_length_skipped(self):
        # make_window rejects M < 1, so no cell is scored on the wrong days.
        ds = dm.synth_generate(dm.SynthSpec(n_sites=5, n_days=5, seed=0))
        rows = vf.window_sweep(ds, ds.dates[-2:], [0, -2], 5, seed=0)
        assert [(r["n_cases"], r["n_skipped"]) for r in rows] == [(0, 2), (0, 2)]
        assert all(math.isnan(r["mean_crps"]) for r in rows)

    def test_produces_scores(self):
        ds = dm.synth_generate(dm.SynthSpec(n_sites=15, n_days=20, seed=13))
        valid = ds.dates[-2:]
        rows = vf.window_sweep(ds, valid, [10], 10, seed=0)
        assert rows[0]["n_cases"] == 30
        assert rows[0]["mean_crps"] > 0
        assert rows[0]["se_crps"] > 0


def module_level_imports(tree):
    """The import statements a module runs when it is imported: those
    outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_estimation_imports_no_higher_layer():
    # The fit stages build on fields and transforms; the per-date refit,
    # which needs the dataset and the ensembles, is verification's.
    tree = ast.parse(Path(est.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in module_level_imports(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif node.level and node.module is None:  # from . import x
            modules |= {f"precipfield.{alias.name}" for alias in node.names}
        else:
            base = f"precipfield.{node.module}" if node.level else node.module
            modules |= {base, *(f"{base}.{alias.name}" for alias in node.names)}
    assert not modules & {f"precipfield.{name}"
                          for name in ("data", "forecasting", "verification")}
