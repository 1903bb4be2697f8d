import datetime as dt
import math

import numpy as np
import pytest
from conftest import dataset_from_rows
from scipy import optimize, stats
from scipy.special import ndtr

from precipfield import data as dm
from precipfield import estimation as est
from precipfield import fields as rf
from precipfield import transforms as tr
from precipfield.errors import (
    DegenerateOccurrence,
    DomainError,
    InsufficientData,
    NoTrainingData,
    PrecipError,
    RangeUnidentifiable,
)


def window_from_days(day_arrays):
    """Build a TrainingWindow from a list of (xy, obs, fcst) triples."""
    days = {}
    for i, (xy, obs, fcst) in enumerate(day_arrays):
        days[dt.date(2004, 1, 1) + dt.timedelta(days=i)] = {
            "xy": np.asarray(xy, dtype=float),
            "obs": np.asarray(obs, dtype=float),
            "fcst": np.asarray(fcst, dtype=float),
        }
    return est.TrainingWindow(days=days, M=len(days))


def pooled_window(obs, fcst):
    """One-day window of independent records (xy spread far apart)."""
    n = len(obs)
    xy = np.column_stack([np.arange(n) * 1e5, np.zeros(n)])
    return window_from_days([(xy, obs, fcst)])


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
        assert len(w.days) == 30
        # 40 days starting 2004-01-01 end on 2004-02-09.
        assert max(w.days) == dt.date(2004, 2, 9)
        assert min(w.days) == dt.date(2004, 1, 11)
        assert not w.short

    def test_short_window_flagged(self):
        ds = self._dataset(12)
        w = est.make_window(ds, dt.date(2004, 3, 1), 30)
        assert len(w.days) == 12
        assert w.short

    def test_no_history(self):
        ds = self._dataset(5)
        with pytest.raises(NoTrainingData):
            est.make_window(ds, dt.date(2003, 1, 1), 30)

    @pytest.mark.parametrize("M", [0, -2])
    def test_nonpositive_length_rejected(self, M):
        with pytest.raises(DomainError):
            est.make_window(self._dataset(5), dt.date(2004, 2, 1), M)


class TestProbitTrend:
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
            [(d["xy"], rng.permutation(d["obs"]), d["fcst"]) for d in w.days.values()]
        )
        rho_shuf, _ = est.fit_occurrence_range(shuffled, trend)
        assert rho_shuf < rho


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
    """The wet cube-root amounts, implied means and forecasts that
    fit_gamma_variance fits, records with a nonpositive mean left out."""
    obs, fcst, fcst_cr, zero_flag = window.pooled()
    wet = obs > 0
    y = np.cbrt(obs[wet])
    means = tr.gamma_mean(eta, fcst_cr[wet], zero_flag[wet])
    usable = means > 0
    return y[usable], means[usable], fcst[wet][usable]


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
        ll_boundary, _ = est._gamma_loglik(nu0, 0.0, *data)
        ll_interior, _ = est._gamma_loglik(nu0, 0.01, *data)
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
        loglik, _ = est._gamma_loglik(*nu, *data)
        oracle_loglik, _ = est._gamma_loglik(*nelder_mead_variance(*data), *data)
        assert loglik >= oracle_loglik - 1e-6

    @pytest.mark.parametrize("nu", [(0.3, 0.0), (0.12, 0.04), (0.02, 0.3)])
    def test_gradient_matches_central_differences(self, nu):
        spec = dm.SynthSpec(n_sites=20, n_days=15, seed=7)
        w = est.make_window(dm.synth_generate(spec), dt.date(2005, 1, 1), 15)
        data = variance_data(w, spec.eta)
        _, grad = est._gamma_loglik(*nu, *data)
        for i in range(2):
            step = 1e-6 * np.eye(2)[i]
            up = est._gamma_loglik(*(np.array(nu) + step), *data)[0]
            down = est._gamma_loglik(*(np.array(nu) - step), *data)[0]
            assert grad[i] == pytest.approx((up - down) / 2e-6, rel=1e-6, abs=1e-4)


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
        objectives = []
        search = est._maximize_range

        def recording(objective):
            objectives.append(objective)
            return search(objective)

        monkeypatch.setattr(est, "_maximize_range", recording)
        spec = dm.SynthSpec(n_sites=20, n_days=12, seed=200 + seed)
        w = est.make_window(dm.synth_generate(spec), dt.date(2005, 1, 1), 12)
        trend, _ = est.fit_probit_trend(w)
        rho, rho_diag = est.fit_occurrence_range(w, trend)
        r_hat, r_diag = est.fit_amount_range(w, spec.eta, spec.nu)
        for fitted, objective, evals in ((rho, objectives[0], rho_diag["rho_evals"]),
                                         (r_hat, objectives[1], r_diag["r_evals"])):
            assert abs(math.log(fitted) - self._grid_argmax(objective)) <= est._RANGE_XTOL
            assert 0 < evals < 40


class TestFitWarnings:
    def test_unconverged_variance_warns(self, caplog):
        model = est.FittedModel.from_text(
            "gamma0 = 0\ngamma1 = 0.4\ngamma2 = -0.4\nrho_km = 30\neta0 = 1.5\n"
            "eta1 = 0.8\neta2 = 0.4\nnu0 = 0.15\nnu1 = 0.05\nr_km = 20\n"
            "diag.variance_converged = False\ndiag.variance_evals = 57\n")
        with caplog.at_level("WARNING", logger="precipfield"):
            est.warn_fit_diagnostics(model, dt.date(2004, 2, 1), 10)
        [record] = caplog.records
        assert record.getMessage().startswith("2004-02-01 M=10: the Gamma variance search")
        assert "after 57 evaluations" in record.getMessage()

    def test_converged_fit_is_quiet(self, caplog):
        spec = dm.SynthSpec(n_sites=20, n_days=15, seed=12)
        ds = dm.synth_generate(spec)
        model = est.fit_model(est.make_window(ds, ds.dates[-1] + dt.timedelta(days=1), 15))
        with caplog.at_level("WARNING", logger="precipfield"):
            est.warn_fit_diagnostics(model, ds.dates[-1], 15)
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
            [(d["xy"], rng.permutation(d["obs"]), d["fcst"]) for d in w.days.values()]
        )
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
        for key in ("probit_iterations", "rho_evals", "r_evals", "variance_evals"):
            assert isinstance(diag[key], int) and diag[key] > 0
        assert diag["variance_converged"] is True
        assert diag["min_training_mean"] > 0
        assert diag["n_wet_records"] > 0

    def test_diagnostics_round_trip(self):
        spec = dm.SynthSpec(n_sites=20, n_days=15, seed=12)
        ds = dm.synth_generate(spec)
        w = est.make_window(ds, max(ds.dates) + dt.timedelta(days=1), 15)
        model = est.fit_model(w)
        diag = model.diagnostics
        assert diag["occurrence_pairs"] == int(est._close_pairs(w)[2].size) > 0
        assert diag["rho_at_bound"] is False and diag["r_at_bound"] is False
        back = est.FittedModel.from_text(model.to_text())
        assert back.diagnostics["occurrence_pairs"] == diag["occurrence_pairs"]
        assert back.diagnostics["rho_at_bound"] is False
        assert back.diagnostics["r_at_bound"] is False
        assert back.diagnostics["variance_converged"] is True
        assert back.diagnostics["probit_iterations"] == diag["probit_iterations"]
        for key in ("probit_iterations", "variance_evals", "occurrence_pairs"):
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
    def test_empty_valid_dates(self):
        ds = dm.synth_generate(dm.SynthSpec(n_sites=5, n_days=5, seed=0))
        assert est.window_sweep(ds, [], [10], 5, seed=0) == []

    def test_skipped_cells_counted(self):
        # Valid date with only dry history: fit fails, cell is skipped.
        rows = []
        for d in range(12):
            for s in range(3):
                rows.append((f"s{s}", float(s * 10), 0.0,
                             dt.date(2004, 1, 1) + dt.timedelta(days=d), 0.0, 2.0))
        ds = dataset_from_rows(rows)
        rows = est.window_sweep(ds, [dt.date(2004, 1, 12)], [10], 5, seed=0)
        assert rows[0]["n_skipped"] == 1
        assert rows[0]["n_cases"] == 0
        assert math.isnan(rows[0]["mean_crps"])

    def test_nonpositive_length_skipped(self):
        # make_window rejects M < 1, so no cell is scored on the wrong days.
        ds = dm.synth_generate(dm.SynthSpec(n_sites=5, n_days=5, seed=0))
        rows = est.window_sweep(ds, ds.dates[-2:], [0, -2], 5, seed=0)
        assert [(r["n_cases"], r["n_skipped"]) for r in rows] == [(0, 2), (0, 2)]
        assert all(math.isnan(r["mean_crps"]) for r in rows)

    def test_produces_scores(self):
        ds = dm.synth_generate(dm.SynthSpec(n_sites=15, n_days=20, seed=13))
        valid = ds.dates[-2:]
        rows = est.window_sweep(ds, valid, [10], 10, seed=0)
        assert rows[0]["n_cases"] == 30
        assert rows[0]["mean_crps"] > 0
        assert rows[0]["se_crps"] > 0
