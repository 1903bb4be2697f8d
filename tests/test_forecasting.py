import datetime as dt
import faulthandler
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import TRICKY_ID_CHARS, column_csv, csv_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from precipfield import cli
from precipfield import data as dm
from precipfield import estimation as est
from precipfield import fields as rf
from precipfield import forecasting as fc
from precipfield import transforms as tr
from precipfield import verification as vf
from precipfield.errors import DomainError, NumericalError


def toy_model(gamma=(0.0, 0.4, -0.4), rho=35.0, eta=(1.5, 0.8, 0.4),
              nu=(0.15, 0.05), r=25.0, diagnostics=None):
    return est.FittedModel(
        occurrence=tr.OccurrenceTrendParams(*gamma),
        rho=rf.ExpCorrelation(rho),
        amount=tr.GammaCoeffs(*eta, *nu),
        r=rf.ExpCorrelation(r),
        diagnostics=diagnostics or {"min_training_mean": 0.5},
    )


def spread_sites(n, spacing=30.0):
    return [rf.Site(f"s{i}", i * spacing, 0.0) for i in range(n)]


class TestSiteEnsemble:
    def test_deterministic(self):
        model = toy_model()
        sites = spread_sites(3)
        fcst = np.array([8.0, 0.0, 27.0])
        a = fc.generate_site_ensemble(model, sites, fcst, 50, seed=4)
        b = fc.generate_site_ensemble(model, sites, fcst, 50, seed=4)
        assert np.array_equal(a.members, b.members)

    def test_nonnegative_and_finite(self):
        model = toy_model()
        ens = fc.generate_site_ensemble(model, spread_sites(4),
                                        [0.0, 1.0, 64.0, 8.0], 500, seed=0)
        assert np.all(ens.members >= 0)
        assert np.all(np.isfinite(ens.members))

    def test_wet_probability_matches_probit_oracle(self):
        model = toy_model()
        fcst = 8.0  # cube root 2.0
        mu = 0.0 + 0.4 * 2.0  # no zero flag
        ens = fc.generate_site_ensemble(model, spread_sites(1), [fcst], 10_000, seed=1)
        wet_frac = (ens.members[:, 0] > 0).mean()
        assert wet_frac == pytest.approx(ndtr(mu), abs=0.02)

    def test_zero_forecast_uses_indicator(self):
        model = toy_model(gamma=(0.0, 0.4, -1.2))
        ens = fc.generate_site_ensemble(model, spread_sites(1), [0.0], 10_000, seed=2)
        wet_frac = (ens.members[:, 0] > 0).mean()
        assert wet_frac == pytest.approx(ndtr(-1.2), abs=0.02)

    def test_wet_amount_marginal_matches_simulation_oracle(self):
        # Because W and Z are independent, wet amounts are unconditional
        # draws from the site Gamma (on the cube-root scale).
        model = toy_model()
        fcst = 27.0
        alpha, beta, _ = tr.gamma_marginals(model.amount, 3.0, False)
        mean, variance = alpha * beta, alpha * beta ** 2
        ens = fc.generate_site_ensemble(model, spread_sites(1), [fcst], 40_000, seed=3)
        wet = ens.members[:, 0][ens.members[:, 0] > 0]
        cr = np.cbrt(wet)
        se = variance ** 0.5 / np.sqrt(wet.size)
        assert cr.mean() == pytest.approx(mean, abs=4 * se + 1e-3)
        assert cr.var() == pytest.approx(variance, rel=0.05)

    def test_nearby_sites_more_correlated_than_far(self):
        model = toy_model()
        sites = [rf.Site("a", 0.0, 0.0), rf.Site("b", 2.0, 0.0),
                 rf.Site("c", 500.0, 0.0)]
        ens = fc.generate_site_ensemble(model, sites, [27.0, 27.0, 27.0],
                                        10_000, seed=4)
        m = ens.members
        near = np.corrcoef(m[:, 0], m[:, 1])[0, 1]
        far = np.corrcoef(m[:, 0], m[:, 2])[0, 1]
        assert near > far

    def test_nonpositive_mean_fallback_flagged(self):
        model = toy_model(eta=(-1.0, 0.1, 0.0), gamma=(2.0, 0.0, 0.0))
        ens = fc.generate_site_ensemble(model, spread_sites(1), [1.0], 200, seed=5)
        assert ens.fallback_sites == [0]
        assert np.all(np.isfinite(ens.members))

    def test_no_sites_rejected(self):
        with pytest.raises(DomainError):
            fc.generate_site_ensemble(toy_model(), [], [], 10, seed=0)

    @pytest.mark.parametrize("make", [
        fc.generate_site_ensemble, fc.independence_baseline_ensemble, fc.areal_ensemble,
    ], ids=["site", "baseline", "areal"])
    @pytest.mark.parametrize("n_sites, fcst", [(5, [8.0] * 4), (1, [])],
                             ids=["too_few", "empty"])
    def test_forecast_count_must_match_sites(self, make, n_sites, fcst):
        with pytest.raises(DomainError, match="forecasts for"):
            make(toy_model(), spread_sites(n_sites), fcst, 10, seed=0)


class TestIndependenceBaseline:
    def test_single_site_identical_to_spatial(self):
        # With one site there is no spatial structure; the same seed stream
        # must give the exact same ensemble.
        model = toy_model()
        sites = spread_sites(1)
        a = fc.generate_site_ensemble(model, sites, [8.0], 100, seed=6)
        b = fc.independence_baseline_ensemble(model, sites, [8.0], 100, seed=6)
        assert np.array_equal(a.members, b.members)

    def test_cross_site_correlation_near_zero(self):
        model = toy_model()
        sites = [rf.Site("a", 0.0, 0.0), rf.Site("b", 1.0, 0.0)]  # nearby
        ens = fc.independence_baseline_ensemble(model, sites, [27.0, 27.0],
                                                10_000, seed=7)
        corr = np.corrcoef(ens.members[:, 0], ens.members[:, 1])[0, 1]
        assert abs(corr) < 0.03

    def test_marginals_match_spatial_ensemble(self):
        model = toy_model()
        sites = spread_sites(2, spacing=5.0)
        sp = fc.generate_site_ensemble(model, sites, [8.0, 8.0], 20_000, seed=8)
        ind = fc.independence_baseline_ensemble(model, sites, [8.0, 8.0],
                                                20_000, seed=9)
        for j in range(2):
            assert (sp.members[:, j] > 0).mean() == pytest.approx(
                (ind.members[:, j] > 0).mean(), abs=0.02
            )
            assert sp.members[:, j].mean() == pytest.approx(
                ind.members[:, j].mean(), rel=0.1
            )


class TestGridEnsemble:
    def test_deterministic(self):
        model = toy_model()
        grid = rf.GridSpec(0.0, 0.0, 10.0, 8, 8)
        fcst = np.full((8, 8), 8.0)
        a = fc.generate_grid_ensemble(model, grid, fcst, 10, seed=10)
        b = fc.generate_grid_ensemble(model, grid, fcst, 10, seed=10)
        assert np.array_equal(a.members, b.members)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            fc.generate_grid_ensemble(toy_model(), rf.GridSpec(0, 0, 10.0, 4, 4),
                                      np.zeros((3, 4)), 5, seed=0)

    def test_fallback_cells_flagged(self):
        model = toy_model(eta=(-1.0, 1.0, 0.0))
        grid = rf.GridSpec(0.0, 0.0, 10.0, 3, 2)
        field = np.full((2, 3), 8.0)
        field[1, 2] = 0.0  # implied mean -1
        ens = fc.generate_grid_ensemble(model, grid, field, 20, seed=1)
        assert ens.fallback_sites == [5]
        assert np.all(np.isfinite(ens.members))

    def test_zero_field_strong_dry_trend(self):
        model = toy_model(gamma=(-2.5, 0.4, 0.0))
        grid = rf.GridSpec(0.0, 0.0, 10.0, 8, 8)
        ens = fc.generate_grid_ensemble(model, grid, np.zeros((8, 8)), 500, seed=11)
        wet_frac = (ens.members > 0).mean(axis=0)
        assert np.all(wet_frac < 0.05)

    def test_cellwise_wet_fraction_matches_site_path(self):
        # Cross-implementation oracle: the same 100 points pushed through
        # the dense site sampler must give matching marginal wet fractions.
        model = toy_model()
        grid = rf.GridSpec(0.0, 0.0, 10.0, 10, 10)
        rng = np.random.default_rng(0)
        fcst_field = rng.gamma(2.0, 6.0, size=(10, 10))
        fcst_field[rng.random((10, 10)) < 0.3] = 0.0
        gens = fc.generate_grid_ensemble(model, grid, fcst_field, 10_000, seed=12)
        gx, gy = grid.node_xy()
        sites = [rf.Site(f"g{k}", float(x), float(y))
                 for k, (x, y) in enumerate(zip(gx.ravel(), gy.ravel()))]
        sens = fc.generate_site_ensemble(model, sites, fcst_field.ravel(),
                                         10_000, seed=13)
        wet_grid = (gens.members.reshape(10_000, -1) > 0).mean(axis=0)
        wet_site = (sens.members > 0).mean(axis=0)
        assert np.max(np.abs(wet_grid - wet_site)) < 0.03


ORACLE_SITES = spread_sites(5, spacing=12.0)
ORACLE_FCST = [0.0, 3.0, 8.0, 64.0, 27.0]
ORACLE_GRID = rf.GridSpec(0.0, 0.0, 10.0, 8, 8)
ORACLE_FIELD = np.resize([0.0, 3.0, 8.0, 27.0, 64.0, 0.0, 0.5, 125.0, 8.0], (8, 8))


def make_ensemble(kind, model, n, seed, sites=ORACLE_SITES, fcst=ORACLE_FCST):
    if kind == "site":
        return fc.generate_site_ensemble(model, sites, fcst, n, seed).members
    if kind == "baseline":
        return fc.independence_baseline_ensemble(model, sites, fcst, n, seed).members
    return fc.generate_grid_ensemble(model, ORACLE_GRID, ORACLE_FIELD, n, seed).members


def member_loop(kind, model, n_members, seed):
    """Reference for the block ensembles: one Generator, one member at a
    time, each thresholded and transformed on its own. A site member draws
    its occurrence field ``chol @ rng.standard_normal(k)``, then its amount
    field; the baseline drops the factors; grid members come in pairs, the
    real and imaginary parts of one occurrence and one amount FFT."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        mu, alpha, beta, _ = fc.two_stage_params(model, ORACLE_FIELD)
        emb_w = rf.CirculantEmbedding(ORACLE_GRID, model.rho)
        emb_z = rf.CirculantEmbedding(ORACLE_GRID, model.r)
        members = []
        for _ in range(0, n_members, 2):
            w, z = emb_w.sample(rng, 2), emb_z.sample(rng, 2)
            members += [tr.wet_amounts(mu + w[j], z[j], alpha, beta) for j in (0, 1)]
        return np.array(members[:n_members])
    mu, alpha, beta, _ = fc.two_stage_params(model, np.asarray(ORACLE_FCST))
    k = len(ORACLE_SITES)
    if kind == "site":
        chol_w = rf.cholesky_pd(rf.correlation_matrix(ORACLE_SITES, model.rho))
        chol_z = rf.cholesky_pd(rf.correlation_matrix(ORACLE_SITES, model.r))
    members = np.zeros((n_members, k))
    for i in range(n_members):
        w, z = rng.standard_normal(k), rng.standard_normal(k)
        if kind == "site":
            w, z = chol_w @ w, chol_z @ z
        members[i] = tr.wet_amounts(mu + w, z, alpha, beta)
    return members


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBlockKernel:
    """The ensemble drawn as one block equals the member-by-member loop bit
    for bit, and its first members do not depend on the member count."""

    @pytest.mark.parametrize("kind", ["site", "baseline", "grid"])
    @pytest.mark.parametrize("model", [
        toy_model(eta=(-1.0, 1.0, 0.4)),  # zero forecasts fall back
        toy_model(gamma=(-40.0, 0.0, 0.0)),  # every site dry in every member
    ], ids=["mixed", "all_dry"])
    def test_matches_member_loop(self, kind, model):
        block = make_ensemble(kind, model, 60, 21)
        assert_bits_equal(block, member_loop(kind, model, 60, 21))
        assert_bits_equal(make_ensemble(kind, model, 7, 21), block[:7])

    @pytest.mark.parametrize("kind, n", [
        *(("site", n) for n in (255, 256, 257, 513)),
        *(("baseline", n) for n in (255, 256, 257, 513)),
        *(("grid", n) for n in (1, 3, 25)),
    ])
    def test_block_edges_match_member_loop(self, kind, n):
        # Site members are drawn and transformed 256 at a time, grid members
        # two at a time: counts on and either side of a block edge.
        model = toy_model(eta=(-1.0, 1.0, 0.4))
        assert_bits_equal(make_ensemble(kind, model, n, 25), member_loop(kind, model, n, 25))

    @pytest.mark.parametrize("kind", ["site", "baseline"])
    def test_prefix_at_100_scattered_sites(self, kind):
        # At 100 sites a gemm over the whole block rounds differently as the
        # member count changes; the stacked gemv does not. 2,500 members also
        # span several of the kernel's 256-member chunks.
        rng = np.random.default_rng(3)
        sites = [rf.Site(f"p{i}", x, y)
                 for i, (x, y) in enumerate(rng.uniform(0.0, 200.0, (100, 2)))]
        fcst = rng.gamma(2.0, 6.0, 100)
        model = toy_model()
        full = make_ensemble(kind, model, 2500, 22, sites, fcst)
        for n in (1, 3, 7, 64, 300, 600):
            assert_bits_equal(make_ensemble(kind, model, n, 22, sites, fcst), full[:n])

    @pytest.mark.parametrize("n", [1, 5])
    def test_odd_grid_counts_are_prefixes(self, n):
        model = toy_model()
        full = make_ensemble("grid", model, 8, 23)
        assert_bits_equal(make_ensemble("grid", model, n, 23), full[:n])

    def test_seed_sequence_seeds_one_generator(self):
        # Verification passes SeedSequence children; each seeds default_rng.
        model = toy_model()
        seed = np.random.SeedSequence(entropy=24, spawn_key=(2, 1))
        assert_bits_equal(make_ensemble("site", model, 5, seed),
                          member_loop("site", model, 5, seed))

    def test_mixed_case_has_wet_and_dry_members(self):
        ens = fc.generate_site_ensemble(toy_model(eta=(-1.0, 1.0, 0.4)), ORACLE_SITES,
                                        ORACLE_FCST, 60, 21)
        assert 0 < np.count_nonzero(ens.members) < ens.members.size
        assert ens.fallback_sites == [0]


def traced_peak(fn):
    """The peak of Python's traced allocations while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scattered_sites(n, seed=3):
    rng = np.random.default_rng(seed)
    sites = [rf.Site(f"p{i}", x, y) for i, (x, y) in enumerate(rng.uniform(0.0, 200.0, (n, 2)))]
    return sites, rng.gamma(2.0, 6.0, n)


def blocks_of(members, k):
    """``members`` as a list of blocks of ``k`` members, the last partial."""
    return [members[i:i + k] for i in range(0, len(members), k)]


@pytest.fixture(scope="module")
def world100(tmp_path_factory):
    """Files for CLI forecasts: a dataset with 100 sites on its last date,
    a model file and a 100 x 100 grid forecast with dry cells."""
    root = tmp_path_factory.mktemp("world100")
    ds = dm.synth_generate(dm.SynthSpec(n_sites=100, n_days=2, seed=5))
    dm.save_dataset(ds, root / "dataset.csv")
    (root / "model.txt").write_text(toy_model().to_text())
    field = np.random.default_rng(1).gamma(1.0, 10.0, (100, 100))
    field[field < 3.0] = 0.0
    with open(root / "grid.csv", "w", encoding="utf-8") as fh:
        fh.write("row,col,value_hundredths_inch\n")
        fh.writelines(f"{iy},{ix},{v!r}\n" for iy, row in enumerate(field.tolist())
                      for ix, v in enumerate(row))
    return root, ds.dates[-1].isoformat()


def cli_forecast(world, mode, n, out):
    """Run ``forecast`` in ``mode`` with ``n`` members on ``world100``."""
    root, date = world
    args = ["forecast", "--model", str(root / "model.txt"), "--mode", mode,
            "--members", str(n), "--seed", "3", "--out", str(out)]
    if mode == "grid":
        args += ["--grid-forecast", str(root / "grid.csv"), "--grid-cell-km", "3",
                 "--grid-nx", "100", "--grid-ny", "100"]
    else:
        args += ["--dataset", str(root / "dataset.csv"), "--date", date]
    res = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert res.exit_code == 0


def world_inputs(world):
    """The model, sites and site forecasts that ``forecast`` reads from
    ``world100``'s files."""
    root, date = world
    model = est.FittedModel.from_text((root / "model.txt").read_text())
    sites, fcst, _ = dm.day_arrays(dm.load_dataset(root / "dataset.csv"),
                                   dt.date.fromisoformat(date))
    return model, sites, fcst


class TestBoundedMemory:
    """Each ensemble is transformed, and each file written, a block of
    members at a time: a forecast holds one block whatever its member
    count, and a whole ensemble costs about one block beyond itself."""

    def test_areal_ensemble_peak(self):
        # 5,000 x 100 members are 4 MB; the whole-ensemble transform peaked
        # near 29 MB.
        sites, fcst = scattered_sites(100)
        assert traced_peak(lambda: fc.areal_ensemble(toy_model(), sites, fcst, 5000, 1)) < 8e6

    def test_site_writer_peak(self, tmp_path):
        # 250,000 values; formatted as one list of strings they peaked near
        # 38 MB.
        sites, fcst = scattered_sites(100)
        ens = fc.generate_site_ensemble(toy_model(), sites, fcst, 2500, 2)
        path = tmp_path / "site.csv"
        blocks = blocks_of(ens.members, fc.SITE_BLOCK)
        assert traced_peak(lambda: fc.write_site_ensemble_csv(sites, blocks, path)) < 6e6
        assert sum(1 for _ in open(path, "rb")) == 1 + 2500 * 100

    @pytest.mark.parametrize("mode, n, bound", [
        # Traced peaks at 100 sites (100 x 100 cells): about 2.7, 1.7 and
        # 3.8 MB, whatever the member count. Holding the whole ensemble,
        # they were 9.9, 17.4 and 12.1 MB.
        ("site", 10_000, 4e6),
        ("areal", 20_000, 3e6),
        ("grid", 100, 6e6),
    ])
    def test_cli_forecast_peak(self, world100, tmp_path, mode, n, bound):
        out = tmp_path / "out"
        assert traced_peak(lambda: cli_forecast(world100, mode, n, out)) < bound
        if mode == "grid":
            assert len(list(out.iterdir())) == n
        else:
            assert sum(1 for _ in open(out, "rb")) == 1 + n * (100 if mode == "site" else 1)


class TestCliBlockEdges:
    """The streamed CLI files equal the whole ensembles written by the
    former column writer, across block edges."""

    def test_site_forecast_of_600_members(self, world100, tmp_path):
        # Two full 256-member blocks and a partial one.
        cli_forecast(world100, "site", 600, tmp_path / "site.csv")
        model, sites, fcst = world_inputs(world100)
        members = fc.generate_site_ensemble(model, sites, fcst, 600, 3).members
        assert (tmp_path / "site.csv").read_bytes() == column_csv(
            ["member", "site_id", "value_hundredths_inch"],
            [[str(m) for m in range(600) for _ in sites], [s.id for s in sites] * 600,
             map(repr, members.ravel().tolist())])

    def test_grid_forecast_of_5_members(self, world100, tmp_path):
        # An odd count: only the first half of the last pair is written.
        cli_forecast(world100, "grid", 5, tmp_path / "grid")
        model = world_inputs(world100)[0]
        grid = rf.GridSpec(0.0, 0.0, 3.0, 100, 100)
        field = dm.load_grid_field(world100[0] / "grid.csv", grid)
        members = fc.generate_grid_ensemble(model, grid, field, 5, 3).members
        assert sorted(p.name for p in (tmp_path / "grid").iterdir()) == [
            fc.GRID_MEMBER_FILE.format(i) for i in range(5)]
        for i in range(5):
            assert (tmp_path / "grid" / fc.GRID_MEMBER_FILE.format(i)).read_bytes() == column_csv(
                ["row", "col", "value_hundredths_inch"],
                [[str(iy) for iy in range(100) for _ in range(100)],
                 [str(ix) for ix in range(100)] * 100, map(repr, members[i].ravel().tolist())])


def output_bytes(out):
    """The bytes of a forecast's file, or of each file of a grid forecast."""
    if out.is_dir():
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return out.read_bytes()


@pytest.fixture()
def time_bound():
    """Ends the run, printing every thread's stack, if a test waits 120 s
    on a worker."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.mark.usefixtures("time_bound")
class TestWorkers:
    """Each block's transform and text are made in forked workers, one per
    usable CPU up to one per block; the files are the same bytes at any
    worker count, and no worker outlives its command."""

    @pytest.mark.parametrize("n_blocks, cpus, workers", [
        (1, 8, 1), (10, 2, 2), (10, 1, 1), (3, 64, 3), (0, 2, 1)])
    def test_worker_count(self, n_blocks, cpus, workers):
        assert fc._worker_count(n_blocks, cpus) == workers

    @pytest.mark.parametrize("mode, n", [("site", 600), ("areal", 600), ("grid", 5)])
    def test_bytes_do_not_depend_on_worker_count(self, world100, tmp_path, monkeypatch,
                                                 mode, n):
        # Three blocks each: 256 + 256 + 88 members, or 2 + 2 + 1 fields.
        jobs = []
        ordered_map = fc._ordered_map

        def spy(fn, items, n_jobs):
            jobs.append(n_jobs)
            return ordered_map(fn, items, n_jobs)

        monkeypatch.setattr(fc, "_ordered_map", spy)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(fc, "_usable_cpus", lambda cpus=cpus: cpus)
            cli_forecast(world100, mode, n, tmp_path / f"cpus{cpus}")
            outputs.append(output_bytes(tmp_path / f"cpus{cpus}"))
            assert multiprocessing.active_children() == []
        assert jobs == [1, 2]
        assert outputs[0] == outputs[1]
        if mode == "grid":
            assert len(outputs[0]) == n

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_late_numerical_error_leaves_no_file(self, world100, tmp_path, monkeypatch,
                                                 caplog, cpus):
        # The second Gamma quantile of each process fails: after the first
        # block is written when the CLI works alone, and in each worker's
        # second block otherwise. It used to leave the blocks before it.
        quantile, calls = tr._gamma_quantile, []

        def fail_second(*args):
            calls.append(None)
            if len(calls) == 2:
                raise NumericalError("Gamma quantile did not converge")
            return quantile(*args)

        monkeypatch.setattr(tr, "_gamma_quantile", fail_second)
        monkeypatch.setattr(fc, "_usable_cpus", lambda: cpus)
        root, date = world100
        out = tmp_path / "out" / "site.csv"
        out.parent.mkdir()
        with caplog.at_level("INFO", logger="precipfield"):
            res = CliRunner().invoke(cli.main, [
                "forecast", "--model", str(root / "model.txt"), "--dataset",
                str(root / "dataset.csv"), "--date", date, "--members", "1000",
                "--seed", "3", "--out", str(out)], catch_exceptions=False)
        assert res.exit_code == 4
        assert list(out.parent.iterdir()) == []
        assert multiprocessing.active_children() == []
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("ERROR", "Gamma quantile did not converge")]

    def test_results_come_back_in_order(self):
        with fc._ordered_map(lambda i: (i, os.getpid()), range(7), 2) as results:
            results = list(results)
        assert [i for i, _ in results] == list(range(7))
        assert len({pid for _, pid in results} - {os.getpid()}) == 2
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_is_an_error(self):
        # No reply and no exception to send back: the parent raises an
        # OSError, which the CLI reports in one line, and joins the rest.
        def die_on_3(i):
            if i == 3:
                os._exit(3)
            return i

        with pytest.raises(ChildProcessError, match="a forecast worker exited"):
            with fc._ordered_map(die_on_3, range(7), 2) as results:
                list(results)
        assert multiprocessing.active_children() == []


class TestArealForecasts:
    def test_average_all_zero(self):
        model = toy_model(gamma=(-40.0, 0.0, 0.0))
        areal = fc.areal_ensemble(model, spread_sites(5), np.full(5, 8.0), 50, seed=0)
        assert np.all(areal == 0.0)

    def test_average_two_point(self):
        # The areal value of a member is the plain mean of its site values.
        # At 100 sites and 600 members the means of 256-member blocks, the
        # last partial, must be those of the whole matrix.
        model = toy_model()
        for sites, fcst, n in [(spread_sites(2), [8.0, 0.0], 300), (*scattered_sites(100), 600)]:
            site_ens = fc.generate_site_ensemble(model, sites, fcst, n, seed=3)
            areal = fc.areal_ensemble(model, sites, fcst, n_members=n, seed=3)
            assert_bits_equal(areal, site_ens.members.mean(axis=1))

    def test_average_empty_rejected(self):
        with pytest.raises(DomainError):
            fc.areal_ensemble(toy_model(), [], [], n_members=10, seed=0)

    def test_singleton_subset_equals_site_ensemble(self):
        model = toy_model()
        sites = spread_sites(1)
        site_ens = fc.generate_site_ensemble(model, sites, [8.0], 300, seed=14)
        areal = fc.areal_ensemble(model, sites, [8.0], n_members=300, seed=14)
        assert np.array_equal(areal, site_ens.members[:, 0])

    def test_independence_limit_variance(self):
        # With ranges near zero, sites are independent, so the areal-average
        # variance is (1/J) times the mean single-site variance.
        model = toy_model(rho=0.001, r=0.001)
        sites = spread_sites(8, spacing=50.0)
        fcst = np.full(8, 27.0)
        areal = fc.areal_ensemble(model, sites, fcst, n_members=40_000, seed=15)
        single = fc.generate_site_ensemble(model, sites, fcst, 40_000, seed=16)
        site_var = single.members.var(axis=0).mean()
        assert areal.var() == pytest.approx(site_var / 8, rel=0.1)

    def test_comonotone_limit_has_larger_variance(self):
        model_small = toy_model(rho=0.001, r=0.001)
        model_large = toy_model(rho=1e6, r=1e6)
        sites = spread_sites(8, spacing=50.0)
        fcst = np.full(8, 27.0)
        v_small = fc.areal_ensemble(model_small, sites, fcst, 20_000, seed=17).var()
        v_large = fc.areal_ensemble(model_large, sites, fcst, 20_000, seed=17).var()
        assert v_large > v_small


class TestClimatology:
    def test_single_value_crps_is_absolute_error(self):
        # Climatology is the pooled history used as an exchangeable ensemble.
        assert vf.crps_ensemble(np.array([12.0]), 7.0) == pytest.approx(5.0)


class TestEnsembleSerialization:
    def test_site_csv_format(self, tmp_path):
        model = toy_model()
        ens = fc.generate_site_ensemble(model, spread_sites(2), [8.0, 0.0], 3, seed=18)
        path = tmp_path / "ens.csv"
        fc.write_site_ensemble_csv(ens.sites, [ens.members], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "member,site_id,value_hundredths_inch"
        assert len(lines) == 1 + 3 * 2
        assert lines[1].startswith("0,s0,")
        assert lines[3].startswith("1,s0,")  # member-major ordering

    def test_grid_csvs(self, tmp_path):
        model = toy_model()
        grid = rf.GridSpec(0.0, 0.0, 10.0, 4, 4)
        ens = fc.generate_grid_ensemble(model, grid, np.full((4, 4), 8.0), 2, seed=19)
        fc.write_grid_ensemble_csvs(grid, [ens.members], tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["member_0000.csv",
                                                              "member_0001.csv"]
        lines = (tmp_path / "member_0000.csv").read_text().splitlines()
        assert lines[0] == "row,col,value_hundredths_inch"
        assert len(lines) == 17

    def test_bytes_match_csv_writer(self, tmp_path):
        model = toy_model()
        sites = [rf.Site("plain", 0.0, 0.0), rf.Site('gauge "7", east', 30.0, 0.0),
                 rf.Site("Zürich", 60.0, 0.0)]
        ens = fc.generate_site_ensemble(model, sites, [8.0, 0.0, 3.0], 4, seed=5)
        fc.write_site_ensemble_csv(sites, [ens.members], tmp_path / "site.csv")
        assert (tmp_path / "site.csv").read_bytes() == csv_reference(
            ["member", "site_id", "value_hundredths_inch"],
            [[i, s.id, repr(float(ens.members[i, j]))]
             for i in range(4) for j, s in enumerate(sites)])
        assert b'"gauge ""7"", east"' in (tmp_path / "site.csv").read_bytes()

        values = fc.areal_ensemble(model, sites, [8.0, 0.0, 3.0], 5, seed=6)
        fc.write_scalar_ensemble_csv([values], tmp_path / "areal.csv")
        assert (tmp_path / "areal.csv").read_bytes() == csv_reference(
            ["member", "value_hundredths_inch"],
            [[i, repr(float(v))] for i, v in enumerate(values)])

        grid = rf.GridSpec(0.0, 0.0, 10.0, 3, 2)
        ens = fc.generate_grid_ensemble(model, grid, np.arange(6.0).reshape(2, 3), 2, seed=7)
        fc.write_grid_ensemble_csvs(grid, [ens.members], tmp_path)
        for i in range(2):
            assert (tmp_path / f"member_{i:04d}.csv").read_bytes() == csv_reference(
                ["row", "col", "value_hundredths_inch"],
                [[iy, ix, repr(float(ens.members[i, iy, ix]))]
                 for iy in range(2) for ix in range(3)])

    def test_scalar_csv(self, tmp_path):
        path = tmp_path / "areal.csv"
        fc.write_scalar_ensemble_csv([[1.5], [0.0]], path)
        assert path.read_text() == (
            "member,value_hundredths_inch\n0,1.5\n1,0.0\n"
        )


TRICKY_IDS = st.lists(st.lists(st.sampled_from(TRICKY_ID_CHARS), min_size=1, max_size=4)
                      .map("".join), min_size=1, max_size=5)
VALUES = st.sampled_from([0.0, -0.0, 1.5, 1e-300, 123456.789, 1 / 3, 5e17])


class TestTemplateWriters:
    """The %-template writers give the bytes of the former column writer,
    for site ids that look like %-formats or need CSV quoting."""

    @settings(max_examples=40, deadline=None)
    @given(ids=TRICKY_IDS, n=st.sampled_from([1, 2, 255, 257]), data=st.data())
    @example(ids=["p%s", "100%", "%r%%", 'q"1,\r\n'], n=257, data=None)
    def test_site_csv(self, tmp_path_factory, ids, n, data):
        rng = np.random.default_rng(n)
        members = rng.gamma(0.5, 20.0, (n, len(ids))) * (rng.random((n, len(ids))) < 0.6)
        if data is not None:
            members[0] = data.draw(st.lists(VALUES, min_size=len(ids), max_size=len(ids)))
        sites = [rf.Site(i, 0.0, 0.0) for i in ids]
        path = tmp_path_factory.mktemp("site") / "site.csv"
        fc.write_site_ensemble_csv(sites, blocks_of(members, fc.SITE_BLOCK), path)
        quoted = [dm.csv_field(i) for i in ids]
        assert path.read_bytes() == column_csv(
            ["member", "site_id", "value_hundredths_inch"],
            [[str(m) for m in range(n) for _ in ids], quoted * n,
             map(repr, members.ravel().tolist())])

    @settings(max_examples=10, deadline=None)
    @given(ny=st.integers(1, 4), nx=st.integers(1, 4), n=st.integers(1, 3),
           picks=st.lists(VALUES, min_size=1, max_size=48))
    def test_grid_and_scalar_csvs(self, tmp_path_factory, ny, nx, n, picks):
        members = np.resize(np.array(picks), (n, ny, nx))
        out = tmp_path_factory.mktemp("grid")
        fc.write_grid_ensemble_csvs(rf.GridSpec(0.0, 0.0, 1.0, nx, ny), blocks_of(members, 2), out)
        assert len(list(out.iterdir())) == n
        for i in range(n):
            assert (out / fc.GRID_MEMBER_FILE.format(i)).read_bytes() == column_csv(
                ["row", "col", "value_hundredths_inch"],
                [[str(iy) for iy in range(ny) for _ in range(nx)],
                 [str(ix) for ix in range(nx)] * ny, map(repr, members[i].ravel().tolist())])
        fc.write_scalar_ensemble_csv(blocks_of(members.ravel(), 5), out / "areal.csv")
        assert (out / "areal.csv").read_bytes() == column_csv(
            ["member", "value_hundredths_inch"],
            [map(str, range(members.size)), map(repr, members.ravel().tolist())])
