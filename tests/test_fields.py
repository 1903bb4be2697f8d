import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from precipfield import fields as fd
from precipfield.errors import (
    DegenerateMatrixWarning,
    DomainError,
    NumericalError,
)


class TestGridSpec:
    @pytest.mark.parametrize("field", ["x0", "y0", "cell_km"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_geometry_rejected(self, field, value):
        # A nan or inf cell size used to reach the embedding and fail there.
        geometry = {"x0": 0.0, "y0": 0.0, "cell_km": 10.0, "nx": 3, "ny": 3, field: value}
        with pytest.raises(DomainError, match="finite"):
            fd.GridSpec(**geometry)


class TestExpCorrelation:
    def test_zero_distance(self):
        assert fd.exp_correlation(0.0, 10.0) == 1.0

    def test_e_folding(self):
        assert fd.exp_correlation(10.0, 10.0) == pytest.approx(np.exp(-1.0))

    def test_half_correlation_distance(self):
        # exp(-d/r) = 0.5 at d = r ln 2
        assert fd.exp_correlation(10.0 * np.log(2.0), 10.0) == pytest.approx(0.5)

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            fd.exp_correlation(-1.0, 10.0)

    def test_nonpositive_range_rejected(self):
        with pytest.raises(DomainError):
            fd.exp_correlation(1.0, 0.0)


class TestPairwiseDistances:
    def test_three_four_five(self):
        d = fd.pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d[0, 1] == pytest.approx(5.0)
        assert d[0, 0] == 0.0

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=100))
    def test_symmetry_and_triangle(self, n, seed):
        xy = np.random.default_rng(seed).uniform(0, 100, size=(n, 2))
        d = fd.pairwise_distances(xy)
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0)
        # Triangle inequality via one random triple.
        i, j, k = np.random.default_rng(seed + 1).integers(0, n, 3)
        assert d[i, k] <= d[i, j] + d[j, k] + 1e-9


class TestCorrelationMatrix:
    def test_values(self):
        sites = [fd.Site("a", 0.0, 0.0), fd.Site("b", 30.0, 0.0)]
        mat = fd.correlation_matrix(sites, fd.ExpCorrelation(30.0))
        assert mat[0, 1] == pytest.approx(np.exp(-1.0))
        assert mat[0, 0] == 1.0

    def test_positive_definite(self):
        xy = np.random.default_rng(3).uniform(0, 200, size=(40, 2))
        mat = fd.correlation_matrix(xy, fd.ExpCorrelation(50.0))
        assert np.linalg.eigvalsh(mat).min() > 0

    def test_duplicate_coordinates_warn(self):
        sites = [fd.Site("a", 1.0, 1.0), fd.Site("b", 1.0, 1.0)]
        with pytest.warns(DegenerateMatrixWarning, match="^co-located sites a, b:"):
            fd.correlation_matrix(sites, fd.ExpCorrelation(10.0))
        xy = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 0.0], [1.0, 1.0]])
        with pytest.warns(DegenerateMatrixWarning, match="^co-located sites 1, 3:"):
            fd.correlation_matrix(xy, fd.ExpCorrelation(10.0))


class TestCholesky:
    def test_matches_numpy(self):
        mat = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.allclose(fd.cholesky_pd(mat), np.linalg.cholesky(mat))

    def test_jitter_rescues_semidefinite(self):
        mat = np.ones((3, 3))  # rank one
        chol = fd.cholesky_pd(mat)
        assert np.allclose(chol @ chol.T, mat, atol=1e-4)

    def test_indefinite_rejected(self):
        with pytest.raises(NumericalError):
            fd.cholesky_pd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_stack_factors_each_matrix(self):
        rng = np.random.default_rng(4)
        stack = np.array([fd.correlation_matrix(rng.uniform(0, 100, size=(4, 2)),
                                                fd.ExpCorrelation(30.0)) for _ in range(3)])
        chol = fd.cholesky_pd(stack)
        assert chol.shape == (3, 4, 4)
        for i in range(3):
            assert np.array_equal(chol[i], np.linalg.cholesky(stack[i]))

    def test_stack_jitter_retry_covers_every_matrix(self):
        stack = np.array([np.ones((2, 2)), [[1.0, 0.5], [0.5, 1.0]]])
        chol = fd.cholesky_pd(stack)
        jittered = stack[1] + fd._JITTER * np.eye(2)
        assert np.array_equal(chol[1], np.linalg.cholesky(jittered))
        assert np.allclose(chol[0] @ chol[0].T, stack[0], atol=1e-4)


class TestSampleMvn:
    def test_deterministic(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        a = fd.sample_mvn(np.zeros(2), corr, seed=11)
        b = fd.sample_mvn(np.zeros(2), corr, seed=11)
        assert np.array_equal(a, b)

    def test_moments(self):
        corr = np.array([[1.0, 0.7], [0.7, 1.0]])
        draws = fd.sample_mvn(np.array([2.0, -1.0]), corr, seed=0, n_samples=200_000)
        assert np.allclose(draws.mean(axis=0), [2.0, -1.0], atol=0.02)
        emp = np.corrcoef(draws.T)
        assert emp[0, 1] == pytest.approx(0.7, abs=0.01)


class TestCirculantEmbedding:
    def test_variance_and_lag_correlation(self):
        grid = fd.GridSpec(0.0, 0.0, 5.0, 24, 24)
        emb = fd.CirculantEmbedding(grid, fd.ExpCorrelation(30.0))
        fields = emb.sample(np.random.default_rng(0), n_fields=4000)
        var = fields.var()
        assert var == pytest.approx(1.0, abs=0.02)
        # Lag-1 correlation along x should equal exp(-cell/range).
        lag1 = np.mean(fields[:, :, :-1] * fields[:, :, 1:])
        assert lag1 == pytest.approx(np.exp(-5.0 / 30.0), abs=0.02)

    def test_matches_dense_covariance(self):
        """Distribution check: FFT sampling must match a dense Cholesky
        sampler's covariance on a small grid."""
        grid = fd.GridSpec(0.0, 0.0, 10.0, 6, 5)
        corr = fd.ExpCorrelation(25.0)
        emb = fd.CirculantEmbedding(grid, corr)
        fields = emb.sample(np.random.default_rng(1), n_fields=60_000)
        flat = fields.reshape(fields.shape[0], -1)
        emp = flat.T @ flat / flat.shape[0]
        gx, gy = grid.node_xy()
        xy = np.column_stack([gx.ravel(), gy.ravel()])
        expected = fd.exp_correlation(fd.pairwise_distances(xy), corr.range_km)
        assert np.max(np.abs(emp - expected)) < 0.03

    def test_deterministic(self):
        grid = fd.GridSpec(0.0, 0.0, 5.0, 8, 8)
        corr = fd.ExpCorrelation(20.0)
        a = fd.CirculantEmbedding(grid, corr).sample(np.random.default_rng(5))
        b = fd.CirculantEmbedding(grid, corr).sample(np.random.default_rng(5))
        assert a.shape == (1, 8, 8)
        assert np.array_equal(a, b)

    def test_output_shape(self):
        grid = fd.GridSpec(0.0, 0.0, 5.0, 7, 3)
        emb = fd.CirculantEmbedding(grid, fd.ExpCorrelation(8.0))
        out = emb.sample(np.random.default_rng(0), n_fields=3)
        assert out.shape == (3, 3, 7)

    @pytest.mark.parametrize("ny, nx, range_km", [
        (1, 1, 20.0), (1, 7, 20.0), (7, 1, 20.0), (9, 7, 20.0), (100, 100, 20.0),
        (4, 4, 40.0),  # embedding enlarged to 4x its minimal size
    ])
    def test_sample_is_fft2_cropped(self, ny, nx, range_km):
        # The sampler transforms along x, keeps the grid's columns, then
        # transforms along y; its fields must be numpy's fft2 cropped to
        # the grid, bit for bit.
        emb = fd.CirculantEmbedding(fd.GridSpec(0.0, 0.0, 10.0, nx, ny),
                                    fd.ExpCorrelation(range_km))
        if (ny, nx) == (4, 4):
            assert (emb._my, emb._mx) == (24, 24)
        rng = np.random.default_rng(ny * 1000 + nx)
        expected = []
        for _ in range(2):
            eps = rng.standard_normal((2, emb._my, emb._mx))
            f = np.fft.fft2(emb._sqrt_lam * (eps[0] + 1j * eps[1]))[:ny, :nx]
            expected += [f.real, f.imag]
        out = emb.sample(np.random.default_rng(ny * 1000 + nx), n_fields=4)
        assert np.array_equal(out.view(np.uint64), np.array(expected).view(np.uint64))

    def test_indefinite_embedding_rejected(self):
        # A range far longer than the grid extent cannot embed even after
        # the 4x enlargement cap.
        grid = fd.GridSpec(0.0, 0.0, 10.0, 4, 4)
        with pytest.raises(fd.EmbeddingFailure):
            fd.CirculantEmbedding(grid, fd.ExpCorrelation(100.0))


class TestTruncatedNormal:
    def test_half_normal_mean(self):
        # E[X | X > 0] for X ~ N(0,1) is sqrt(2/pi).
        rng = np.random.default_rng(0)
        draws = fd._trunc_norm_draw(rng, np.zeros(200_000), 1.0, np.ones(200_000))
        assert draws.min() > 0
        assert draws.mean() == pytest.approx(np.sqrt(2.0 / np.pi), abs=0.005)

    def test_negative_orthant(self):
        rng = np.random.default_rng(1)
        draws = fd._trunc_norm_draw(rng, np.zeros(100_000), 1.0, -np.ones(100_000))
        assert draws.max() <= 0
        assert draws.mean() == pytest.approx(-np.sqrt(2.0 / np.pi), abs=0.01)

    def test_far_tail_finite(self):
        rng = np.random.default_rng(2)
        draws = fd._trunc_norm_draw(rng, np.full(1000, -40.0), 1.0, np.ones(1000))
        assert np.all(np.isfinite(draws))
        assert np.all(draws > 0)

    def test_shifted_mean_against_scipy(self):
        rng = np.random.default_rng(3)
        mu, sd = 1.2, 0.7
        draws = fd._trunc_norm_draw(rng, np.full(200_000, mu), sd, np.ones(200_000))
        expected = stats.truncnorm.mean(-mu / sd, np.inf, loc=mu, scale=sd)
        assert draws.mean() == pytest.approx(expected, abs=0.005)


class TestGibbsTruncatedMVN:
    def test_bivariate_moments_against_rejection_oracle(self):
        corr = np.array([[1.0, 0.6], [0.6, 1.0]])
        draws = fd.sample_truncated_mvn(
            np.zeros(2), corr, np.array([1.0, 1.0]), n_samples=40_000, burn_in=200, seed=0
        )
        assert np.all(draws > 0)
        # Rejection-sampling oracle for the same orthant.
        rng = np.random.default_rng(99)
        chol = np.linalg.cholesky(corr)
        raw = rng.standard_normal((400_000, 2)) @ chol.T
        keep = raw[(raw > 0).all(axis=1)]
        assert np.allclose(draws.mean(axis=0), keep.mean(axis=0), atol=0.02)
        assert np.allclose(draws.std(axis=0), keep.std(axis=0), atol=0.02)

    def test_mixed_signs_respected(self):
        corr = np.array([[1.0, -0.4], [-0.4, 1.0]])
        draws = fd.sample_truncated_mvn(
            np.array([0.5, -0.5]), corr, np.array([1.0, -1.0]),
            n_samples=5000, burn_in=100, seed=1,
        )
        assert np.all(draws[:, 0] > 0)
        assert np.all(draws[:, 1] <= 0)

    def test_independent_case_matches_univariate(self):
        # With identity correlation the stationary law is a product of
        # univariate truncated normals.
        draws = fd.sample_truncated_mvn(
            np.zeros(2), np.eye(2), np.ones(2), n_samples=50_000, burn_in=50, seed=2
        )
        assert draws.mean() == pytest.approx(np.sqrt(2.0 / np.pi), abs=0.01)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=4, max_value=8),
    st.floats(min_value=5.0, max_value=30.0),
)
def test_embedding_never_indefinite_for_exponential(nx, ny, range_km):
    """Exponential covariance embeds whenever the range is comparable to
    the grid extent."""
    grid = fd.GridSpec(0.0, 0.0, 10.0, nx, ny)
    emb = fd.CirculantEmbedding(grid, fd.ExpCorrelation(range_km))
    out = emb.sample(np.random.default_rng(0))
    assert out.shape == (1, ny, nx)
    assert np.all(np.isfinite(out))
