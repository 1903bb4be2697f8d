import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from precipfield import transforms as tr
from precipfield.errors import DomainError, NonpositiveMean, NonpositiveVariance


def gamma_quantile_bisect(alpha, beta, p, tol=1e-12):
    """Independent quantile oracle: bisection on the regularized lower
    incomplete gamma."""
    lo, hi = 0.0, 1.0
    while special.gammainc(alpha, hi / beta) < p:
        hi *= 2.0
    while hi - lo > tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if special.gammainc(alpha, mid / beta) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCubeRoot:
    def test_zero(self):
        assert tr.cube_root(0.0) == 0.0

    def test_perfect_cubes(self):
        assert tr.cube_root(8.0) == pytest.approx(2.0)
        assert tr.cube_root(27.0) == pytest.approx(3.0)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            tr.cube_root(-1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, y0):
        assert tr.cube(tr.cube_root(y0)) == pytest.approx(y0, rel=1e-9)


class TestOccurrenceTrend:
    def test_zero_coefficients(self):
        p = tr.OccurrenceTrendParams(0.0, 0.0, 0.0)
        assert tr.occurrence_trend(p, 3.7, True) == 0.0

    def test_linear_nonzero_forecast(self):
        p = tr.OccurrenceTrendParams(-0.5, 1.0, 0.3)
        assert tr.occurrence_trend(p, 2.0, False) == pytest.approx(1.5)

    def test_linear_zero_forecast(self):
        p = tr.OccurrenceTrendParams(-0.5, 1.0, 0.3)
        assert tr.occurrence_trend(p, 0.0, True) == pytest.approx(-0.2)

    def test_nonfinite_rejected(self):
        p = tr.OccurrenceTrendParams(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            tr.occurrence_trend(p, np.nan, False)


class TestGammaMarginal:
    def test_moment_inversion(self):
        c = tr.GammaCoeffs(2.0, 0.0, 0.0, 1.0, 0.0)
        alpha, beta, _ = tr.gamma_marginals(c, 0.7, False)
        assert alpha == pytest.approx(4.0)
        assert beta == pytest.approx(0.5)

    def test_unit_mean_variance(self):
        c = tr.GammaCoeffs(1.0, 0.0, 0.0, 1.0, 0.0)
        alpha, beta, _ = tr.gamma_marginals(c, 5.0, False)
        assert (alpha, beta) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_nonpositive_mean(self):
        c = tr.GammaCoeffs(-1.0, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(NonpositiveMean):
            tr.gamma_marginals(c, 0.5, False)

    def test_nonpositive_variance_guarded_by_type(self):
        with pytest.raises(DomainError):
            tr.GammaCoeffs(1.0, 0.0, 0.0, -1.0, 0.0)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_moment_consistency(self, eta0, nu0, fcst_cr):
        c = tr.GammaCoeffs(eta0, 0.5, 0.0, nu0, 0.1)
        alpha, beta, _ = tr.gamma_marginals(c, fcst_cr, False)
        assert alpha * beta == pytest.approx(eta0 + 0.5 * fcst_cr, rel=1e-12)
        assert alpha * beta ** 2 == pytest.approx(nu0 + 0.1 * fcst_cr ** 3, rel=1e-12)

    def test_variance_nonpositive_runtime(self):
        # nu0 = 0 is allowed by the type but yields v = 0 for zero forecast
        c = tr.GammaCoeffs(1.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(NonpositiveVariance):
            tr.gamma_marginals(c, 0.0, True)


class TestGammaMarginals:
    def test_matches_scalar_case_elementwise(self):
        c = tr.GammaCoeffs(1.5, 0.8, 0.4, 0.15, 0.05)
        cr = np.array([0.0, 0.3, 1.7, 4.2])
        flag = cr == 0.0
        alpha, beta, fell_back = tr.gamma_marginals(c, cr, flag)
        for j in range(cr.size):
            assert (alpha[j], beta[j]) == tr.gamma_marginals(c, cr[j], flag[j])[:2]
        assert not fell_back.any()

    def test_fallback_replaces_nonpositive_means_only(self):
        c = tr.GammaCoeffs(-1.0, 1.0, 0.0, 1.0, 0.0)
        alpha, beta, fell_back = tr.gamma_marginals(c, np.array([0.5, 3.0]),
                                                    np.array([False, False]), 0.25)
        assert fell_back.tolist() == [True, False]
        assert alpha * beta == pytest.approx([0.25, 2.0], rel=1e-12)
        assert alpha * beta ** 2 == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_without_fallback_nonpositive_mean_raises(self):
        c = tr.GammaCoeffs(-1.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(NonpositiveMean):
            tr.gamma_marginals(c, np.array([0.5, 3.0]), np.array([False, False]))

    def test_fallback_does_not_hide_zero_variance(self):
        c = tr.GammaCoeffs(-1.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(NonpositiveVariance):
            tr.gamma_marginals(c, np.zeros(2), np.ones(2, dtype=bool), 0.25)


class TestWetAmounts:
    def test_dry_zero_wet_cubed_anamorphosis(self):
        alpha, beta = np.array([2.0, 2.0, 0.5]), np.array([1.0, 1.0, 3.0])
        w = np.array([0.3, -0.1, 2.0])
        z = np.array([0.5, 1.0, -1.5])
        out = tr.wet_amounts(w, z, alpha, beta)
        assert out[1] == 0.0
        for j in (0, 2):
            expected = tr.anamorphosis(z[j], tr.GammaMarginal(alpha[j], beta[j])) ** 3
            assert out[j] == pytest.approx(expected, rel=1e-14)


class TestAnamorphosis:
    def test_exponential_median(self):
        m = tr.GammaMarginal(1.0, 1.0)
        assert tr.anamorphosis(0.0, m) == pytest.approx(np.log(2.0), abs=1e-10)

    def test_alpha2_median_against_bisection_oracle(self):
        m = tr.GammaMarginal(2.0, 1.0)
        expected = gamma_quantile_bisect(2.0, 1.0, 0.5)
        assert expected == pytest.approx(1.67835, abs=1e-5)
        assert tr.anamorphosis(0.0, m) == pytest.approx(expected, abs=1e-8)

    def test_random_marginals_against_bisection_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            alpha = rng.uniform(0.2, 8.0)
            beta = rng.uniform(0.1, 5.0)
            z = rng.uniform(-3.0, 3.0)
            m = tr.GammaMarginal(alpha, beta)
            expected = gamma_quantile_bisect(alpha, beta, special.ndtr(z))
            assert tr.anamorphosis(z, m) == pytest.approx(expected, rel=1e-8)

    def test_strictly_increasing(self):
        for alpha, beta in [(0.3, 2.0), (1.0, 1.0), (5.0, 0.4)]:
            m = tr.GammaMarginal(alpha, beta)
            z = np.linspace(-6.0, 6.0, 101)
            y = tr.anamorphosis(z, m)
            assert np.all(np.diff(y) > 0)
            assert np.all(y > 0)

    def test_round_trip(self):
        m = tr.GammaMarginal(1.7, 0.8)
        z = np.linspace(-5.0, 5.0, 41)
        back = tr.anamorphosis_inverse(tr.anamorphosis(z, m), m)
        assert np.max(np.abs(back - z)) < 1e-8


class TestAnamorphosisInverse:
    def test_median_case(self):
        m = tr.GammaMarginal(1.0, 1.0)
        assert tr.anamorphosis_inverse(np.log(2.0), m) == pytest.approx(0.0, abs=1e-10)

    def test_tail_clamped(self):
        m = tr.GammaMarginal(1.0, 1.0)
        assert tr.anamorphosis_inverse(1e-300, m) == -8.0

    def test_alpha2_case(self):
        m = tr.GammaMarginal(2.0, 1.0)
        assert tr.anamorphosis_inverse(1.67835, m) == pytest.approx(0.0, abs=1e-4)

    def test_nonpositive_rejected(self):
        m = tr.GammaMarginal(1.0, 1.0)
        with pytest.raises(DomainError):
            tr.anamorphosis_inverse(0.0, m)


class TestMixedCdf:
    def test_median_of_continuous_part(self):
        m = tr.GammaMarginal(1.0, 1.0)
        assert tr.mixed_cdf(0.2, m, np.log(2.0) ** 3) == pytest.approx(0.6, abs=1e-10)

    def test_all_mass_at_zero(self):
        m = tr.GammaMarginal(1.0, 1.0)
        assert tr.mixed_cdf(1.0, m, 123.0) == pytest.approx(1.0)

    def test_point_mass_at_zero(self):
        m = tr.GammaMarginal(1.0, 1.0)
        assert tr.mixed_cdf(0.4, m, 0.0) == pytest.approx(0.4)

    @settings(max_examples=50)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.2, max_value=8.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_valid_cdf(self, p0, alpha, beta):
        m = tr.GammaMarginal(alpha, beta)
        y = np.linspace(0.0, 500.0, 60)
        vals = tr.mixed_cdf(p0, m, y)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= -1e-14)
        assert tr.mixed_cdf(p0, m, 1e9) == pytest.approx(1.0, abs=1e-9)
