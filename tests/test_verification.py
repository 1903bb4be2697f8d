import csv
import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import TRICKY_ID_CHARS, column_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from precipfield import data as dm
from precipfield import estimation as est
from precipfield import fields as rf
from precipfield import forecasting as fc
from precipfield import verification as vf
from precipfield.errors import DomainError
from precipfield.transforms import GammaMarginal, mixed_cdf


def pair_matrix_crps(members, obs):
    """The textbook O(m^2) ensemble CRPS, kept here as the oracle."""
    x = np.asarray(members, dtype=float)
    return float(np.abs(x - obs).mean() - 0.5 * np.abs(x[:, None] - x[None, :]).mean())


class TestCrpsEnsemble:
    def test_point_forecast_is_absolute_error(self):
        assert vf.crps_ensemble([3.0], 5.0) == pytest.approx(2.0)

    def test_two_member_hand_value(self):
        assert vf.crps_ensemble([0.0, 1.0], 0.0) == pytest.approx(0.25)

    def test_climatology_hand_value(self):
        # 4-member history {0,0,10,20}, obs 0: mean |x_i - 0| = 7.5; the sum
        # of |x_i - x_j| over all 16 ordered pairs is 140, so the spread term
        # is 140/32 = 4.375 and the score is 3.125. Cross-checked against the
        # exact step-function integral of (F - 1)^2: 0.25*10 + 0.0625*10.
        assert vf.crps_ensemble([0.0, 0.0, 10.0, 20.0], 0.0) == pytest.approx(3.125)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            vf.crps_ensemble([], 1.0)

    def test_permutation_invariant(self):
        members = [3.0, 0.0, 7.0, 2.0]
        obs = 1.5
        base = vf.crps_ensemble(members, obs)
        for perm in itertools.permutations(members):
            assert vf.crps_ensemble(list(perm), obs) == pytest.approx(base, abs=1e-14)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=15),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_nonnegative(self, members, obs):
        assert vf.crps_ensemble(members, obs) >= -1e-12

    def test_matches_numeric_integral_on_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            members = rng.gamma(1.5, 8.0, size=20)
            members[rng.random(20) < 0.3] = 0.0
            obs = 0.0 if rng.random() < 0.4 else rng.gamma(1.5, 8.0)
            direct = vf.crps_ensemble(members, obs)
            numeric = vf.crps_numeric(vf.empirical_cdf(members), obs)
            assert abs(direct - numeric) < 1e-6

    def test_matches_pair_matrix_oracle(self):
        rng = np.random.default_rng(20070301)
        worst = 0.0
        for case in range(1200):
            m = int(rng.integers(1, 401))
            kind = case % 4
            if kind == 0:  # continuous draws
                members = rng.gamma(0.8, 12.0, size=m)
            elif kind == 1:  # point mass at zero
                members = rng.gamma(1.5, 8.0, size=m)
                members[rng.random(m) < 0.5] = 0.0
            elif kind == 2:  # repeated quantized values
                members = rng.integers(0, 6, size=m).astype(float) * 10.0
            else:  # all members equal
                members = np.full(m, float(rng.integers(0, 3)))
            if case % 3 == 0:
                obs = 0.0
            elif case % 3 == 1:  # outside the ensemble, above it
                obs = float(members.max()) + rng.gamma(1.0, 20.0)
            else:
                obs = float(rng.gamma(1.5, 8.0))
            fast = vf.crps_ensemble(members, obs)
            slow = pair_matrix_crps(members, obs)
            err = abs(fast - slow)
            if abs(slow) >= 1e-6:
                err /= abs(slow)
            worst = max(worst, err)
        assert worst < 1e-12

    def test_permutation_invariant_exactly(self):
        # The spread term reads only the sorted members, so it is order-free
        # for any values; the mean absolute error sums in input order, which
        # is exact for whole hundredths, the unit of observed climatology.
        rng = np.random.default_rng(5)
        for m in (2, 7, 64, 300, 2_000):
            members = np.rint(rng.gamma(0.6, 40.0, size=m))
            members[rng.random(m) < 0.5] = 0.0
            for obs in (0.0, 3.0, members.max() + 7.0):
                base = vf.crps_ensemble(members, obs)
                for _ in range(10):
                    assert vf.crps_ensemble(rng.permutation(members), obs) == base

    def test_large_ensemble_is_fast(self):
        # The pair-matrix form would need 20,000^2 doubles (3.2 GB) here.
        members = np.random.default_rng(9).gamma(1.5, 8.0, size=20_000)
        start = time.perf_counter()
        score = vf.crps_ensemble(members, 4.0)
        assert time.perf_counter() - start < 0.5
        assert np.isfinite(score) and score > 0


class TestBlockForms:
    """One call on a (sites, members) block gives, bit for bit, the 1-D call
    on each site's ensemble."""

    @pytest.mark.parametrize("m", [1, 2, 15, 16, 301])
    def test_block_equals_per_site_calls(self, m):
        rng = np.random.default_rng(m)
        n_sites = 40
        members = rng.gamma(0.8, 12.0, size=(m, n_sites))  # members by site, as drawn
        members[rng.random(members.shape) < 0.3] = 0.0
        if m % 2:
            members = np.rint(members)  # whole hundredths, with ties
        obs = rng.gamma(1.5, 8.0, size=n_sites)
        obs[rng.random(n_sites) < 0.4] = 0.0
        prob = rng.random(n_sites)
        crps = vf.crps_ensemble(members.T, obs)  # a non-contiguous view
        mae = vf.mae_of_median(members.T, obs)
        bs = vf.brier_score(prob, obs > 0)
        assert crps.shape == mae.shape == bs.shape == (n_sites,)
        assert np.array_equal(vf.crps_ensemble(np.ascontiguousarray(members.T), obs), crps)
        for j in range(n_sites):
            x, o = members[:, j], float(obs[j])
            assert crps[j] == vf.crps_ensemble(x, o)
            # The order-statistics form with a 1-D np.dot.
            assert crps[j] == float(np.abs(x - o).mean()
                                    - np.dot(np.arange(1 - m, m, 2), np.sort(x)) / (m * m))
            assert mae[j] == vf.mae_of_median(x, o)
            assert bs[j] == vf.brier_score(float(prob[j]), o > 0)
            assert bs[j] == (float(prob[j]) - float(o > 0)) ** 2

    def test_one_dimensional_calls_return_floats(self):
        assert isinstance(vf.crps_ensemble(np.array([1.0, 4.0]), 2.0), float)
        assert isinstance(vf.mae_of_median(np.array([1.0, 4.0]), 2.0), float)
        assert isinstance(vf.brier_score(0.3, True), float)

    def test_block_without_members_rejected(self):
        with pytest.raises(DomainError):
            vf.crps_ensemble(np.empty((3, 0)), np.zeros(3))
        with pytest.raises(DomainError):
            vf.mae_of_median(np.empty((3, 0)), np.zeros(3))

    def test_block_probability_out_of_range(self):
        with pytest.raises(DomainError):
            vf.brier_score(np.array([0.5, np.nan]), np.array([True, False]))


class TestCrpsNumeric:
    def test_point_mass_at_obs(self):
        cdf = vf.empirical_cdf([5.0])
        assert vf.crps_numeric(cdf, 5.0) == pytest.approx(0.0, abs=1e-8)

    def test_point_mass_off_obs(self):
        cdf = vf.empirical_cdf([3.0])
        assert vf.crps_numeric(cdf, 5.0) == pytest.approx(2.0, abs=1e-7)

    def test_all_mass_at_zero(self):
        # F is a unit step at 0, so CRPS equals the observation.
        cdf = vf.empirical_cdf([0.0])
        assert vf.crps_numeric(cdf, 7.0) == pytest.approx(7.0, abs=1e-7)

    def test_mixed_gamma_cdf_against_riemann_oracle(self):
        # Quadrature vs a fine trapezoid sum of the same squared CDF
        # distance, on a shared integration interval.
        from scipy.special import gammainc

        marginal = GammaMarginal(2.0, 1.0)
        obs = 5.0
        xi_max = 30_000.0
        xi = np.linspace(0.0, xi_max, 3_000_001)
        cdf_vals = 0.1 + 0.9 * gammainc(2.0, np.cbrt(xi))
        oracle = np.trapezoid((cdf_vals - (obs <= xi)) ** 2, xi)
        mix = lambda t: mixed_cdf(0.1, marginal, t)
        assert vf.crps_numeric(mix, obs, xi_max=xi_max) == pytest.approx(oracle, abs=1e-3)

    def test_propriety_smoke(self):
        # Scoring observations from the true distribution must beat scoring
        # them against shifted/scaled distortions, within one MC s.e.
        rng = np.random.default_rng(1)
        true_members = rng.gamma(2.0, 5.0, size=200)
        obs = rng.gamma(2.0, 5.0, size=10_000)
        own = np.array([vf.crps_ensemble(true_members, o) for o in obs])
        for shift, scale in [(5.0, 1.0), (-4.0, 1.0), (0.0, 2.0), (0.0, 0.4), (8.0, 1.5)]:
            distorted = np.maximum(true_members * scale + shift, 0.0)
            other = np.array([vf.crps_ensemble(distorted, o) for o in obs])
            gap = other.mean() - own.mean()
            se = (other - own).std() / np.sqrt(obs.size)
            assert gap > -se


class TestMaeOfMedian:
    def test_exact_hit(self):
        assert vf.mae_of_median([1.0, 2.0, 3.0], 2.0) == 0.0

    def test_even_midpoint(self):
        assert vf.mae_of_median([0.0, 10.0], 4.0) == pytest.approx(1.0)

    def test_singleton(self):
        assert vf.mae_of_median([7.0], 3.0) == pytest.approx(4.0)


class TestBrierScore:
    def test_perfect(self):
        assert vf.brier_score(1.0, True) == 0.0

    def test_half(self):
        assert vf.brier_score(0.5, True) == pytest.approx(0.25)
        assert vf.brier_score(0.5, False) == pytest.approx(0.25)

    def test_maximal_miss(self):
        assert vf.brier_score(0.0, True) == 1.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            vf.brier_score(1.2, True)


class TestEnergyScore:
    def test_reduces_to_crps_in_one_dimension(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            members = rng.gamma(2.0, 3.0, size=12)
            obs = rng.gamma(2.0, 3.0)
            assert vf.energy_score(members, obs) == pytest.approx(
                vf.crps_ensemble(members, obs), abs=1e-12
            )

    def test_single_member(self):
        val = vf.energy_score(np.array([[3.0, 4.0]]), np.array([0.0, 0.0]))
        assert val == pytest.approx(5.0)

    def test_duplication_invariant(self):
        members = np.random.default_rng(3).gamma(2.0, 3.0, size=(7, 4))
        obs = np.random.default_rng(4).gamma(2.0, 3.0, size=4)
        base = vf.energy_score(members, obs)
        doubled = vf.energy_score(np.vstack([members, members]), obs)
        assert doubled == pytest.approx(base, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            vf.energy_score(np.zeros((3, 2)), np.zeros(3))


class TestVerificationRank:
    def test_strict_ordering(self):
        rng = np.random.default_rng(0)
        assert vf.verification_rank([1.0, 2.0, 3.0], 2.5, rng) == 3

    def test_zero_obs_uniform_over_zero_members(self):
        rng = np.random.default_rng(0)
        ranks = [vf.verification_rank([0.0, 0.0], 0.0, rng) for _ in range(30_000)]
        counts = np.bincount(ranks, minlength=4)[1:4]
        assert set(np.unique(ranks)) == {1, 2, 3}
        # Chi-square uniformity at 3 categories, 99.9% critical value 13.8.
        assert vf.chi_square_uniform(counts) < 13.8

    def test_zero_obs_no_zero_members(self):
        rng = np.random.default_rng(0)
        assert vf.verification_rank([1.0, 2.0], 0.0, rng) == 1

    def test_nonzero_tie_randomized(self):
        rng = np.random.default_rng(0)
        ranks = {vf.verification_rank([5.0, 5.0, 1.0], 5.0, rng) for _ in range(500)}
        assert ranks == {2, 3, 4}

    def test_exchangeability_null_uniform(self):
        # Ranks of observations drawn from the same distribution as the
        # members must be uniform on {1, ..., m+1}.
        rng = np.random.default_rng(5)
        m = 9
        ranks = []
        for _ in range(20_000):
            pool = rng.gamma(2.0, 3.0, size=m + 1)
            pool[rng.random(m + 1) < 0.4] = 0.0
            ranks.append(vf.verification_rank(pool[:m], pool[m], rng))
        counts = vf.rank_histogram(ranks, m + 1)
        assert counts.sum() == 20_000
        # 99.9% critical value for 9 d.o.f. is 27.9.
        assert vf.chi_square_uniform(counts) < 27.9


    @pytest.mark.parametrize("seed", range(10))
    def test_block_equals_site_calls_in_order(self, seed):
        # One integers call over the block, filled element by element: the
        # ranks and the Generator's next draw are those of the 1-D calls.
        g = np.random.default_rng(seed)
        x = g.choice([0.0, 0.0, 1.5, 2.0, 7.0], size=(40, 9))
        obs = g.choice([0.0, 1.5, 2.0, 3.0, 7.0], size=40)
        x[0], obs[0] = 1.0, 0.0  # a zero observation without zero members
        x[1], obs[1] = 0.0, 0.0  # one whose members are all zero
        x[2], obs[2] = 2.0, 2.0  # one tied with every member
        history = x[3:6].ravel()  # one ensemble shared by every observation
        for members in (x, history):
            block_rng, site_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            block = vf.verification_rank(members, obs, block_rng)
            rows = members if members.ndim == 2 else [members] * len(obs)
            sites = [vf.verification_rank(row, o, site_rng) for row, o in zip(rows, obs)]
            np.testing.assert_array_equal(block, sites)
            assert block_rng.random() == site_rng.random()


class TestPitValue:
    @pytest.mark.parametrize("seed", range(10))
    def test_block_equals_site_calls_in_order(self, seed):
        # One uniform call over the zero observations, filled element by
        # element: the values and the Generator's next draw are those of the
        # scalar calls.
        g = np.random.default_rng(seed)
        n = 40
        obs = np.where(g.random(n) < 0.5, 0.0, g.gamma(2.0, 30.0, n))
        p0 = g.uniform(size=n)
        p0[:4], obs[:4] = [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 5.0, 5.0]
        alpha, beta = g.uniform(0.5, 4.0, n), g.uniform(0.5, 3.0, n)
        block_rng, site_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = vf.pit_value(p0, GammaMarginal(alpha, beta), obs, block_rng)
        sites = [vf.pit_value(p, GammaMarginal(a, b), o, site_rng)
                 for p, a, b, o in zip(p0.tolist(), alpha.tolist(), beta.tolist(),
                                       obs.tolist())]
        np.testing.assert_array_equal(block, sites)
        assert block_rng.random() == site_rng.random()

    def test_p0_out_of_range_in_a_block(self):
        with pytest.raises(DomainError):
            vf.pit_value(np.array([0.2, 1.5]), GammaMarginal(np.ones(2), np.ones(2)),
                         np.zeros(2), np.random.default_rng(0))

    def test_zero_obs_in_jump(self):
        rng = np.random.default_rng(0)
        vals = [vf.pit_value(0.4, GammaMarginal(1.0, 1.0), 0.0, rng) for _ in range(5000)]
        vals = np.array(vals)
        assert np.all((vals >= 0.0) & (vals <= 0.4))
        assert vals.mean() == pytest.approx(0.2, abs=0.01)

    def test_continuous_median(self):
        rng = np.random.default_rng(0)
        m = GammaMarginal(1.0, 1.0)
        obs = np.log(2.0) ** 3  # cube root at the exponential median
        assert vf.pit_value(0.2, m, obs, rng) == pytest.approx(0.6, abs=1e-10)

    def test_upper_tail(self):
        rng = np.random.default_rng(0)
        assert vf.pit_value(0.2, GammaMarginal(1.0, 1.0), 1e6, rng) == pytest.approx(1.0)

    def test_p0_out_of_range(self):
        with pytest.raises(DomainError):
            vf.pit_value(1.5, GammaMarginal(1.0, 1.0), 0.0, np.random.default_rng(0))

    def test_uniform_under_the_model(self):
        # Draw observations from the mixed distribution itself; PIT values
        # must be uniform on [0, 1].
        rng = np.random.default_rng(7)
        p0, m = 0.35, GammaMarginal(2.0, 1.5)
        vals = []
        for _ in range(20_000):
            if rng.random() < p0:
                obs = 0.0
            else:
                obs = (rng.gamma(m.alpha) * m.beta) ** 3
            vals.append(vf.pit_value(p0, m, obs, rng))
        counts = vf.pit_histogram(vals, n_bins=20)
        assert counts.sum() == 20_000
        assert vf.chi_square_uniform(counts) < 42.3


def brute_force_mst_length(pts):
    """Independent MST oracle: exhaustive search over spanning trees via
    Kruskal implemented from scratch with union-find."""
    n = len(pts)
    edges = sorted(
        (float(np.linalg.norm(np.asarray(pts[i]) - np.asarray(pts[j]))), i, j)
        for i in range(n)
        for j in range(i + 1, n)
    )
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    total = 0.0
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            total += w
    return total


def prim_mst_length(dist):
    """Total edge weight of the minimum spanning tree by Prim's algorithm
    from point 0: the per-subset loop mst_rank ran once per member, kept
    here as the oracle of the batched pass."""
    n = dist.shape[0]
    if n < 2:
        return 0.0
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    best[0] = np.inf
    total = 0.0
    for _ in range(n - 1):
        j = int(np.argmin(np.where(in_tree, np.inf, best)))
        total += best[j]
        in_tree[j] = True
        best = np.minimum(best, dist[j])
    return float(total)


class TestMstRank:
    @pytest.mark.parametrize("kind", ["random", "integer", "zero"])
    def test_batched_lengths_match_prim_per_subset(self, kind):
        # Bit for bit, ties included: integer points tie often and all-zero
        # ones always, and which tied point joins first sets the order in
        # which edge lengths are summed (a last-index argmin moves the bits
        # of 9 integer cases here).
        rng = np.random.default_rng(2004)
        for m in range(1, 26):
            pts = {"random": lambda: rng.gamma(0.7, 3.0, size=(m + 1, 5)),
                   "integer": lambda: rng.integers(0, 5, size=(m + 1, 3)).astype(float),
                   "zero": lambda: np.zeros((m + 1, 4))}[kind]()
            dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
            keep = [np.delete(np.arange(m + 1), k) for k in range(m + 1)]
            expected = [prim_mst_length(dist[np.ix_(sub, sub)]) for sub in keep]
            assert np.array_equal(vf._mst_lengths_without(dist), expected), m

    def test_outlier_observation_rank_one(self):
        # Members {0,1,2}, obs 10: ensemble MST has length 2, every
        # substituted MST is at least 9, so the ensemble-only length ranks 1.
        rng = np.random.default_rng(0)
        assert vf.mst_rank(np.array([0.0, 1.0, 2.0]), np.array([10.0]), rng) == 1

    def test_single_member_forced_tie(self):
        rng = np.random.default_rng(0)
        ranks = {vf.mst_rank(np.array([[1.0]]), np.array([1.0]), rng) for _ in range(200)}
        assert ranks == {1, 2}

    def test_matches_kruskal_oracle(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((6, 3))
        obs = rng.standard_normal(3)
        base = brute_force_mst_length(list(pts))
        subs = [brute_force_mst_length([p for k, p in enumerate(pts) if k != i] + [obs])
                for i in range(6)]
        expected = 1 + sum(s < base for s in subs)
        assert vf.mst_rank(pts, obs, np.random.default_rng(0)) == expected

    def test_exchangeability_null_uniform(self):
        rng = np.random.default_rng(13)
        m, dim = 7, 2
        ranks = []
        for _ in range(8000):
            pool = rng.standard_normal((m + 1, dim))
            ranks.append(vf.mst_rank(pool[:m], pool[m], rng))
        counts = vf.rank_histogram(ranks, m + 1)
        # 99.9% critical value for 7 d.o.f. is 24.3.
        assert vf.chi_square_uniform(counts) < 24.3


class TestDistanceBlocks:
    """mst_rank and energy_score, like the site distances, take their
    distance matrix from fields.pairwise_distances: row blocks of about
    1 MiB of differences, with the bits of the whole-array form."""

    @pytest.mark.parametrize("n, dim", [(1, 1), (2, 100), (20, 3), (61, 100), (201, 100),
                                        (400, 1), (300, 2)])
    def test_equals_whole_difference_array(self, n, dim):
        pts = np.random.default_rng(n * dim).gamma(0.5, 20.0, (n, dim))
        if dim == 2:
            pts = np.floor(pts)  # coordinates with ties and zeros
        whole = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        blocks = rf.pairwise_distances(pts)
        assert np.array_equal(blocks.view(np.uint64), whole.view(np.uint64))
        assert blocks.mean() == whole.mean()

    def test_distance_past_float_range_is_infinite(self):
        # Coordinates near 1e200 square past the float range, silently.
        pts = np.array([[0.0, 0.0], [3e200, 0.0], [0.0, -4e200], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = rf.pairwise_distances(pts)
        assert np.isinf(dist[0, 1]) and np.isinf(dist[1, 2]) and np.isinf(dist[2, 3])
        assert dist[0, 3] == np.sqrt(2.0) and np.all(np.diag(dist) == 0.0)

    @pytest.mark.parametrize("score", ["mst_rank", "energy_score"])
    def test_traced_peak_at_200_members_100_sites(self, score):
        # The whole (201, 201, 100) difference array alone is 32 MB.
        rng = np.random.default_rng(5)
        x, obs = rng.gamma(0.5, 20.0, (200, 100)), rng.gamma(0.5, 20.0, 100)
        args = (x, obs, rng) if score == "mst_rank" else (x, obs)
        tracemalloc.start()
        try:
            getattr(vf, score)(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestReliabilityTable:
    def test_single_populated_bin(self):
        probs = np.full(10, 0.5)
        outcomes = np.array([1, 0] * 5)
        rows = vf.reliability_table(probs, outcomes)
        populated = [r for r in rows if r["count"] > 0]
        assert len(populated) == 1
        assert populated[0]["observed_frequency"] == pytest.approx(0.5)
        assert populated[0]["mean_forecast_prob"] == pytest.approx(0.5)

    def test_calibration_monte_carlo(self):
        rng = np.random.default_rng(17)
        probs = rng.random(100_000)
        outcomes = rng.random(100_000) < probs
        rows = vf.reliability_table(probs, outcomes)
        for r in rows:
            assert r["count"] > 0
            assert abs(r["observed_frequency"] - r["mean_forecast_prob"]) < 0.02

    def test_empty_input(self):
        rows = vf.reliability_table(np.array([]), np.array([]))
        assert len(rows) == vf.RELIABILITY_BINS == 10
        assert all(r["count"] == 0 for r in rows)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            vf.reliability_table(np.zeros(3), np.zeros(4))


class TestHistograms:
    def test_rank_counting(self):
        assert vf.rank_histogram([1, 1, 2], 2).tolist() == [2, 1]

    def test_empty_rank(self):
        assert vf.rank_histogram([], 4).tolist() == [0, 0, 0, 0]

    def test_pit_counts_sum(self):
        vals = np.random.default_rng(0).random(1000)
        counts = vf.pit_histogram(vals, n_bins=20)
        assert counts.sum() == 1000

    def test_uniform_pit_chi_square(self):
        vals = np.random.default_rng(23).random(100_000)
        counts = vf.pit_histogram(vals, n_bins=20)
        assert vf.chi_square_uniform(counts) < 42.3

    def test_chi_square_zero_for_exact_uniform(self):
        assert vf.chi_square_uniform([5, 5, 5, 5]) == 0.0

    def test_chi_square_matches_scipy(self):
        counts = np.array([12, 8, 15, 5])
        expected = stats.chisquare(counts).statistic
        assert vf.chi_square_uniform(counts) == pytest.approx(expected)


def _scores(*columns):
    """A record's (3, sites) scores from its mae, crps and bs columns."""
    return np.array(columns, dtype=float)


def _record(date, site_ids, methods, occurred=()):
    """A verified date's record, in the shape :func:`vf.verify_date` returns."""
    return {"date": date, "site_ids": site_ids, "occurred": np.array(occurred, dtype=bool),
            "methods": methods}


class TestVerificationReport:
    def test_summary_means(self):
        rep = vf.VerificationReport([
            _record("2004-01-01", ["s0", "s1"],
                    {"a": {"scores": _scores([1.0, 3.0], [2.0, 4.0], [0.0, 1.0]), "energy": 1.0},
                     "b": {"scores": _scores([1.0, 1.0], [1.0, 1.0], [1.0, 1.0])}}),
            _record("2004-01-02", ["s0"],
                    {"a": {"scores": _scores([5.0], [6.0], [0.5]), "energy": 3.0},
                     "b": {"scores": _scores([4.0], [4.0], [0.0])}}),
        ], members=1, mst_members=1)
        a, b = rep.summary()
        assert a == {"method": "a", "n_cases": 3, "mae": 3.0, "crps": 4.0, "bs": 0.5, "es": 2.0}
        assert b["method"] == "b" and b["n_cases"] == 3 and b["mae"] == 2.0
        assert np.isnan(b["es"])  # no energy score

    def test_write_files(self, tmp_path):
        rep = vf.VerificationReport([_record("2004-01-01", ["s,0", "s\r1"], {
            "b": {"scores": _scores([1.0, 2.0], [0.5, 0.25], [0.0, 1.0]), "prob": [0.5, 0.0]},
            "a": {"scores": _scores([3.0, 4.0], [1.5, 0.1], [0.25, 0.75]), "prob": [0.5, 0.5],
                  "ranks": [1, 1], "pit": [0.12, 0.97], "mst": 2, "energy": 1.0},
        }, occurred=[True, False])], members=1, mst_members=2)
        out = tmp_path / "report"
        rep.write(str(out))
        names = {p.name for p in out.iterdir()}
        assert names == {
            "scores.csv", "summary.csv", "rank_hist.csv",
            "pit_hist.csv", "mst_hist.csv", "reliability.csv",
        }

        def rows(name):
            with open(out / name, newline="", encoding="utf-8") as fh:
                return list(csv.reader(fh))

        # One row per case and method, the methods in their record order;
        # site ids that need quoting read back whole.
        assert rows("scores.csv") == [
            ["method", "date", "site_id", "mae", "crps", "bs"],
            ["b", "2004-01-01", "s,0", "1.0", "0.5", "0.0"],
            ["a", "2004-01-01", "s,0", "3.0", "1.5", "0.25"],
            ["b", "2004-01-01", "s\r1", "2.0", "0.25", "1.0"],
            ["a", "2004-01-01", "s\r1", "4.0", "0.1", "0.75"],
        ]
        assert rows("summary.csv") == [
            ["method", "n_cases", "mae", "crps", "bs", "es"],
            ["a", "2", "3.5", "0.8", "0.5", "1.0"],
            ["b", "2", "1.5", "0.375", "0.5", "nan"],
        ]
        # Ranks bin into members + 1 categories, MST ranks into
        # mst_members + 1 and PIT values into 20 bins.
        assert rows("rank_hist.csv") == [["method", "bin", "count"],
                                         ["a", "1", "2"], ["a", "2", "0"]]
        assert rows("mst_hist.csv")[1:] == [["a", "1", "0"], ["a", "2", "1"], ["a", "3", "0"]]
        pit = rows("pit_hist.csv")[1:]
        assert len(pit) == 20
        assert [row for row in pit if row[2] != "0"] == [["a", "3", "1"], ["a", "20", "1"]]
        reliability = rows("reliability.csv")
        assert reliability[0] == ["method", "bin_center", "mean_forecast_prob",
                                  "observed_frequency", "count"]
        assert len(reliability) == 21
        assert [row for row in reliability[1:] if row[4] != "0"] == [
            ["a", "0.55", "0.5", "0.5", "2"],
            ["b", "0.05", "0.0", "0.0", "1"], ["b", "0.55", "0.5", "1.0", "1"]]

    def test_empty_report_writes_header_only_files(self, tmp_path):
        # A run that skips every date has no record to reduce.
        vf.VerificationReport([], members=50, mst_members=19).write(str(tmp_path))
        assert {p.name: p.read_text(encoding="utf-8").count("\n") for p in tmp_path.iterdir()} == {
            name: 1 for name in ("scores.csv", "summary.csv", "rank_hist.csv", "pit_hist.csv",
                                 "mst_hist.csv", "reliability.csv")}


def _skipping_world():
    """A world whose first two eligible dates are skipped at stage fit (too
    few wet records in a window of 10 days) and whose next two are scored."""
    ds = dm.synth_generate(dm.SynthSpec(n_sites=12, n_days=18, seed=1))
    return ds, ds.dates[1:5]


class TestRecords:
    def test_each_date_verified_alone_gives_its_record(self):
        # The record of a date depends only on verify_date's arguments, so
        # dates can be verified in any order, or apart.
        ds, dates = _skipping_world()
        rep, n_skipped = vf.run_verification(ds, dates, 10, 15, 9, seed=1)
        alone = {di: vf.verify_date(ds, di, dates[di], 10, 15, 9, seed=1)
                 for di in reversed(range(len(dates)))}
        assert n_skipped == sum(record is None for record in alone.values()) == 2
        assert [record["date"] for record in rep.days] == list(dates[2:])
        np.testing.assert_equal(rep.days, [alone[di] for di in range(len(dates))
                                           if alone[di] is not None])

    def test_sweep_pools_its_cells_and_counts_skipped_ones(self):
        ds, dates = _skipping_world()
        (row,) = vf.window_sweep(ds, dates, [10], 10, seed=2)
        cells = [vf._sweep_cell(ds, di, dates[di], 10, 10, seed=2)
                 for di in reversed(range(len(dates)))][::-1]
        assert [cell is None for cell in cells] == [True, True, False, False]
        scores = np.concatenate(cells[2:])
        assert row == {"M": 10, "mean_crps": float(np.mean(scores)),
                       "se_crps": float(np.std(scores, ddof=1) / np.sqrt(24)),
                       "n_cases": 24, "n_skipped": 2}


    @pytest.mark.parametrize("members, mst_members", [(15, 9), (6, 9)])
    def test_one_ensemble_per_method_serves_both_sizes(self, members, mst_members):
        # Each method's one ensemble of max(members, mst_members) holds the
        # smaller ensembles of its seed as its first members.
        ds, dates = _skipping_world()
        di, date = 3, dates[3]
        record = vf.verify_date(ds, di, date, 10, members, mst_members, seed=1)
        model = est.fit_model(est.make_window(ds, date, 10))
        sites, fcst, obs = dm.day_arrays(ds, date)
        for k, (name, draw) in enumerate([("spatial", fc.generate_site_ensemble),
                                          ("independence", fc.independence_baseline_ensemble)]):
            def fresh(n):
                seed = np.random.SeedSequence(entropy=1, spawn_key=(di, k))
                return draw(model, sites, fcst, n, seed).members

            entry = record["methods"][name]
            assert entry["energy"] == vf.energy_score(fresh(mst_members), obs)
            assert entry["scores"][1].tolist() == vf.crps_ensemble(fresh(members).T,
                                                                   obs).tolist()


class TestScoresCsv:
    @settings(max_examples=30, deadline=None)
    @given(days=st.lists(st.lists(st.lists(st.sampled_from(TRICKY_ID_CHARS), min_size=1,
                                           max_size=4).map("".join),
                                  min_size=1, max_size=4, unique=True),
                         min_size=1, max_size=3))
    @example(days=[["p%s", "100%", "%r%%", 'q"1,\r\n'], ["100%", "s\r0"], ['q"1,\r\n']])
    def test_bytes_match_column_writer(self, tmp_path_factory, days):
        # Each date has its own site set, as in a network with gaps.
        rng = np.random.default_rng(sum(map(len, days)))
        methods = ["spatial", "nwp"]
        rep = vf.VerificationReport([], members=1, mst_members=1)
        rows = []  # one (method, date, site id, mae, crps, bs) per case and method
        for d, ids in enumerate(days):
            date = f"2004-01-0{d + 1}"
            scores = {m: _scores(*rng.gamma(0.5, 2.0, (3, len(ids)))) for m in methods}
            rep.days.append(_record(date, ids, {m: {"scores": scores[m]} for m in methods}))
            rows += [(m, date, dm.csv_field(site_id), *(repr(float(v[j])) for v in scores[m]))
                     for j, site_id in enumerate(ids) for m in methods]
        out = tmp_path_factory.mktemp("report")
        rep.write(str(out))
        assert (out / "scores.csv").read_bytes() == column_csv(
            ["method", "date", "site_id", *vf.SCORE_KEYS], list(zip(*rows)))

    def test_traced_peak_of_writing_a_large_report(self, tmp_path):
        # 100 dates x 100 sites x 4 methods. Formatted as one block of
        # per-field strings, scores.csv peaked near 20 MB.
        rng = np.random.default_rng(5)
        ids = [f"s{i:03d}" for i in range(100)]
        methods = ("climatology", "nwp", "independence", "spatial")
        rep = vf.VerificationReport([
            _record(f"2004-{1 + d // 28:02d}-{1 + d % 28:02d}", ids,
                    {m: {"scores": _scores(*rng.gamma(0.5, 2.0, (3, 100)))} for m in methods})
            for d in range(100)], members=1, mst_members=1)
        tracemalloc.start()
        try:
            rep.write(str(tmp_path / "report"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        with open(tmp_path / "report" / "scores.csv", newline="", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 1 + 100 * 100 * 4
