"""Parameter estimation from a sliding training window.

Stages, in order: probit occurrence trend, stochastic EM for the occurrence
range, OLS for the Gamma mean, constrained ML for the Gamma variance, and a
profile marginal likelihood for the amount range. Every stage is a pure
function of (window, config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, optimize, special

from . import data as dm
from . import fields as rf
from . import transforms as tr
from .errors import (
    DegenerateOccurrence,
    InsufficientData,
    NonpositiveMean,
    NotFound,
    NoTrainingData,
    PrecipError,
    RangeUnidentifiable,
    SeparationDetected,
)

RANGE_SEARCH_KM = (1.0, 2000.0)
_MIN_NU0 = 1e-6


@dataclass
class TrainingWindow:
    """The M most recent available days strictly before a valid date.

    ``days`` maps each date to aligned arrays (xy, obs, fcst) over the sites
    reporting that day.
    """

    days: dict
    M: int
    short: bool = False

    def pooled(self):
        """Concatenated (obs, fcst, fcst_cuberoot, zero_flag) over all days."""
        obs = np.concatenate([d["obs"] for d in self.days.values()])
        fcst = np.concatenate([d["fcst"] for d in self.days.values()])
        return obs, fcst, np.cbrt(fcst), fcst == 0.0


@dataclass(frozen=True)
class SemConfig:
    """Tuning of the stochastic EM occurrence-range fit."""

    n_iterations: int = 50
    n_burn_iterations: int = 10
    gibbs_sweeps: int = 100
    seed: int = 0

    def __post_init__(self):
        if not self.n_iterations > self.n_burn_iterations >= 0:
            raise PrecipError("need n_iterations > n_burn_iterations >= 0")
        if self.gibbs_sweeps < 1:
            raise PrecipError("need at least one Gibbs sweep")


@dataclass
class FittedModel:
    """All parameters of the two-stage spatial model plus fit diagnostics."""

    occurrence: tr.OccurrenceTrendParams
    rho: rf.ExpCorrelation
    amount: tr.GammaCoeffs
    r: rf.ExpCorrelation
    diagnostics: dict = field(default_factory=dict)

    def to_text(self):
        lines = []
        params = {
            "gamma0": self.occurrence.gamma0,
            "gamma1": self.occurrence.gamma1,
            "gamma2": self.occurrence.gamma2,
            "rho_km": self.rho.range_km,
            "eta0": self.amount.eta0,
            "eta1": self.amount.eta1,
            "eta2": self.amount.eta2,
            "nu0": self.amount.nu0,
            "nu1": self.amount.nu1,
            "r_km": self.r.range_km,
        }
        for key, val in params.items():
            lines.append(f"{key} = {val:.15g}")
        for key in sorted(self.diagnostics):
            val = self.diagnostics[key]
            if isinstance(val, float):
                lines.append(f"diag.{key} = {val:.15g}")
            else:
                lines.append(f"diag.{key} = {val}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        kv = {}
        diag = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key.startswith("diag."):
                try:
                    diag[key[5:]] = float(val)
                except ValueError:
                    diag[key[5:]] = val
            else:
                kv[key] = float(val)
        return cls(
            occurrence=tr.OccurrenceTrendParams(kv["gamma0"], kv["gamma1"], kv["gamma2"]),
            rho=rf.ExpCorrelation(kv["rho_km"]),
            amount=tr.GammaCoeffs(kv["eta0"], kv["eta1"], kv["eta2"], kv["nu0"], kv["nu1"]),
            r=rf.ExpCorrelation(kv["r_km"]),
            diagnostics=diag,
        )


def make_window(dataset, valid_date, M):
    """The min(M, available) most recent dates strictly before valid_date."""
    dates = [d for d in dataset.dates if d < valid_date]
    if not dates:
        raise NoTrainingData(f"no dates before {valid_date}")
    chosen = dates[-M:]
    days = {}
    for date in chosen:
        recs = dataset.by_date(date)
        days[date] = {
            "xy": np.array([[r.x, r.y] for r in recs]),
            "obs": np.array([r.obs for r in recs]),
            "fcst": np.array([r.fcst for r in recs]),
        }
    return TrainingWindow(days=days, M=M, short=len(chosen) < M)


def _probit_design(fcst_cr, zero_flag):
    return np.column_stack([np.ones_like(fcst_cr), fcst_cr, zero_flag.astype(float)])


def _drop_constant_indicator(design):
    """Drop the zero-forecast indicator column when it carries no contrast."""
    col = design[:, 2]
    if col.min() == col.max():
        return design[:, :2], True
    return design, False


def fit_probit_trend(window):
    """Maximum-likelihood probit for occurrence on (1, fcst^1/3, zero flag).

    Fisher scoring with step halving; convergence at score norm 1e-8.
    """
    obs, _, fcst_cr, zero_flag = window.pooled()
    wet = (obs > 0).astype(float)
    if wet.min() == wet.max():
        raise DegenerateOccurrence("window is all-wet or all-dry")
    design, dropped = _drop_constant_indicator(_probit_design(fcst_cr, zero_flag))

    beta = np.zeros(design.shape[1])
    loglik = _probit_loglik(beta, design, wet)
    converged = False
    for _ in range(100):
        eta = design @ beta
        log_phi = -0.5 * eta ** 2 - 0.5 * math.log(2 * math.pi)
        lam1 = np.exp(log_phi - special.log_ndtr(eta))
        lam0 = np.exp(log_phi - special.log_ndtr(-eta))
        score = design.T @ (wet * lam1 - (1 - wet) * lam0)
        if np.linalg.norm(score) < 1e-8:
            converged = True
            break
        w_info = lam1 * lam0  # phi^2 / (Phi * (1 - Phi))
        info = design.T @ (design * w_info[:, None])
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise InsufficientData("rank-deficient probit design") from None
        # Step halving on the log likelihood.
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            cand_ll = _probit_loglik(cand, design, wet)
            if cand_ll >= loglik - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        loglik = _probit_loglik(beta, design, wet)
        if np.linalg.norm(beta) > 1e3:
            raise SeparationDetected("probit coefficients diverge")
    if not converged:
        eta = design @ beta
        log_phi = -0.5 * eta ** 2 - 0.5 * math.log(2 * math.pi)
        score = design.T @ (
            wet * np.exp(log_phi - special.log_ndtr(eta))
            - (1 - wet) * np.exp(log_phi - special.log_ndtr(-eta))
        )
        if np.linalg.norm(score) > 1e-6:
            raise SeparationDetected("probit did not converge in 100 iterations")
    gamma2 = 0.0 if dropped else float(beta[2])
    return tr.OccurrenceTrendParams(float(beta[0]), float(beta[1]), gamma2)


def _probit_loglik(beta, design, wet):
    eta = design @ beta
    return float(np.sum(wet * special.log_ndtr(eta) + (1 - wet) * special.log_ndtr(-eta)))


def golden_section_max(objective, lo, hi, tol=1e-3):
    """Golden-section maximization on [lo, hi]; deterministic."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return (a + b) / 2.0


def _group_by_geometry(items):
    """Group ``(xy, value)`` pairs by identical site geometry, first-seen
    order, so Cholesky work is shared; returns ``[(xy, [values])]``."""
    groups = {}
    for xy, value in items:
        groups.setdefault(xy.tobytes(), (xy, []))[1].append(value)
    return list(groups.values())


def _profile_range_objective(dev_by_group, max_range=RANGE_SEARCH_KM[1]):
    """Sum of centered MVN log densities as a function of the range.

    ``dev_by_group`` is a list of (xy, dev_matrix) pairs where dev_matrix is
    (n_days, n_sites) of residuals sharing the geometry xy.
    """
    dists = [rf.pairwise_distances(xy) for xy, _ in dev_by_group]

    def objective(log_range):
        range_km = math.exp(log_range)
        total = 0.0
        for d, (_, dev) in zip(dists, dev_by_group):
            corr = np.exp(-d / range_km)
            chol = rf.cholesky_pd(corr)
            sol = linalg.solve_triangular(chol, dev.T, lower=True)
            logdet = 2.0 * np.log(np.diag(chol)).sum()
            n_days, k = dev.shape
            total += -0.5 * (
                n_days * (k * math.log(2 * math.pi) + logdet) + np.sum(sol ** 2)
            )
        return total

    return objective


def _maximize_range(dev_by_group):
    objective = _profile_range_objective(dev_by_group)
    log_opt = golden_section_max(
        objective, math.log(RANGE_SEARCH_KM[0]), math.log(RANGE_SEARCH_KM[1])
    )
    return math.exp(log_opt), objective


def fit_occurrence_range(window, trend, config):
    """Stochastic EM estimate of the occurrence range.

    E-step: impute the latent occurrence field per day by truncated-MVN
    Gibbs, with sign patterns given by observed wet/dry. M-step: maximize
    the summed Gaussian log likelihood over the range. Returns the mean of
    the post-burn-in range iterates. Deterministic given the config seed.
    """
    grouped = _group_by_geometry(
        (day["xy"], day) for day in window.days.values() if len(day["obs"]) >= 2)
    if not grouped:
        raise RangeUnidentifiable("no day has two or more sites")

    rng = rf.as_generator(np.random.SeedSequence(config.seed))
    groups = []
    for xy, days in grouped:
        means = [tr.occurrence_trend(trend, np.cbrt(d["fcst"]), d["fcst"] == 0.0)
                 for d in days]
        signs = [np.where(d["obs"] > 0, 1.0, -1.0) for d in days]
        groups.append({"xy": xy, "means": np.array(means), "signs": np.array(signs)})

    rho = math.sqrt(RANGE_SEARCH_KM[0] * RANGE_SEARCH_KM[1])  # geometric midpoint
    rho_iters = []
    for _ in range(config.n_iterations):
        dev_by_group = []
        for grp in groups:
            corr = np.exp(-rf.pairwise_distances(grp["xy"]) / rho)
            sampler = rf.GibbsTruncatedMVN(grp["means"], corr, grp["signs"])
            # Warm start from the previous imputation when shapes persist.
            if "state" in grp:
                sampler.state = grp["state"]
            sampler.sweep(rng, config.gibbs_sweeps)
            grp["state"] = sampler.state
            dev_by_group.append((grp["xy"], sampler.state - grp["means"]))
        rho, _ = _maximize_range(dev_by_group)
        rho_iters.append(rho)
    return float(np.mean(rho_iters[config.n_burn_iterations:]))


def fit_gamma_mean(window):
    """OLS of cube-root wet amounts on (1, fcst^1/3, zero flag).

    If no wet record has a zero forecast the indicator column is dropped and
    its coefficient reported as 0.
    """
    obs, _, fcst_cr, zero_flag = window.pooled()
    wet = obs > 0
    if wet.sum() < 3:
        raise InsufficientData(f"only {int(wet.sum())} wet records")
    y = np.cbrt(obs[wet])
    design, dropped = _drop_constant_indicator(_probit_design(fcst_cr[wet], zero_flag[wet]))
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise InsufficientData("rank-deficient mean regression design")
    eta2 = 0.0 if dropped else float(coef[2])
    return float(coef[0]), float(coef[1]), eta2


def _gamma_loglik(nu0, nu1, y, means, fcst_acc):
    """Independence log likelihood of wet cube-root amounts under the
    moment-parameterized Gamma."""
    var = nu0 + nu1 * fcst_acc
    if np.any(var <= 0):
        return -np.inf
    alpha = means ** 2 / var
    beta = var / means
    return float(
        np.sum(
            -special.gammaln(alpha)
            - alpha * np.log(beta)
            + (alpha - 1.0) * np.log(y)
            - y / beta
        )
    )


def fit_gamma_variance(window, eta):
    """Constrained ML for the Gamma variance coefficients.

    Maximizes the wet-record independence likelihood over nu0 > 0, nu1 >= 0
    (projected Nelder-Mead with restarts); returns nu1 = 0 exactly when the
    optimum sits on the boundary. Wet records with nonpositive implied mean
    are excluded and counted in the second return value.
    """
    obs, fcst, fcst_cr, zero_flag = window.pooled()
    wet = obs > 0
    if wet.sum() < 10:
        raise InsufficientData(f"only {int(wet.sum())} wet records")
    y = np.cbrt(obs[wet])
    means = tr.gamma_mean(eta, fcst_cr[wet], zero_flag[wet])
    usable = means > 0
    if not usable.any():
        raise NonpositiveMean("all implied means are nonpositive")
    n_dropped = int((~usable).sum())
    y, means, fcst_acc = y[usable], means[usable], fcst[wet][usable]

    resid_var = max(float(np.var(y - means)), _MIN_NU0 * 10)

    def neg(params):
        nu0 = math.exp(params[0])
        nu1 = max(params[1], 0.0)
        return -_gamma_loglik(nu0, nu1, y, means, fcst_acc)

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
    nu0 = max(math.exp(best.x[0]), _MIN_NU0)
    nu1 = max(float(best.x[1]), 0.0)
    if best.x[1] <= 0.0:
        nu1 = 0.0
    return (float(nu0), nu1), n_dropped


def fit_amount_range(window, eta, nu):
    """Profile marginal likelihood estimate of the amount range.

    Transforms wet cube-root amounts to Gaussian scores through the
    site-specific anamorphosis and maximizes the summed zero-mean MVN log
    density over the range. The Jacobian factors of the transformed-data
    likelihood do not depend on the range and are omitted.
    """
    coeffs = tr.GammaCoeffs(*eta, *nu)
    wet_devs = []
    for day in window.days.values():
        wet = day["obs"] > 0
        if wet.sum() < 2:
            continue
        fcst_cr = np.cbrt(day["fcst"][wet])
        zero_flag = day["fcst"][wet] == 0.0
        y = np.cbrt(day["obs"][wet])
        z = np.empty(y.size)
        keep = np.ones(y.size, dtype=bool)
        for j in range(y.size):
            try:
                marg = tr.gamma_marginal(coeffs, fcst_cr[j], bool(zero_flag[j]))
            except NonpositiveMean:
                keep[j] = False
                continue
            z[j] = tr.anamorphosis_inverse(y[j], marg)
        if keep.sum() < 2:
            continue
        wet_devs.append((day["xy"][wet][keep], z[keep]))
    grouped = _group_by_geometry(wet_devs)
    if not grouped:
        raise RangeUnidentifiable("no day has two or more wet sites")
    dev_by_group = [(xy, np.array(devs)) for xy, devs in grouped]
    r_hat, _ = _maximize_range(dev_by_group)
    return float(r_hat)


def fit_model(window, sem_config):
    """Run the full staged fit; atomic (raises on any stage failure)."""
    diagnostics = {}
    try:
        trend = fit_probit_trend(window)
        diagnostics["probit_converged"] = True
    except PrecipError as exc:
        raise type(exc)(f"stage probit: {exc}") from exc
    try:
        rho = fit_occurrence_range(window, trend, sem_config)
    except PrecipError as exc:
        raise type(exc)(f"stage occurrence_range: {exc}") from exc
    try:
        eta = fit_gamma_mean(window)
    except PrecipError as exc:
        raise type(exc)(f"stage gamma_mean: {exc}") from exc
    try:
        nu, n_dropped = fit_gamma_variance(window, eta)
        diagnostics["variance_records_dropped"] = n_dropped
    except PrecipError as exc:
        raise type(exc)(f"stage gamma_variance: {exc}") from exc
    try:
        r_hat = fit_amount_range(window, eta, nu)
    except PrecipError as exc:
        raise type(exc)(f"stage amount_range: {exc}") from exc

    # Smallest positive implied training mean: the forecast-time fallback
    # when a site's implied mean goes nonpositive.
    obs, _, fcst_cr, zero_flag = window.pooled()
    wet = obs > 0
    means = tr.gamma_mean(eta, fcst_cr[wet], zero_flag[wet])
    pos = means[means > 0]
    diagnostics["min_training_mean"] = float(pos.min()) if pos.size else 0.1
    diagnostics["n_wet_records"] = int(wet.sum())

    return FittedModel(
        occurrence=trend,
        rho=rf.ExpCorrelation(rho),
        amount=tr.GammaCoeffs(*eta, *nu),
        r=rf.ExpCorrelation(r_hat),
        diagnostics=diagnostics,
    )


def window_sweep(dataset, valid_dates, Ms, sem_config, n_members, seed):
    """Mean site-level ensemble CRPS per training-window length.

    Returns a list of rows {M, mean_crps, n_cases, n_skipped}; fit failures
    skip the (M, date) cell and are counted.
    """
    from . import forecasting as fc
    from . import verification as vf

    if not valid_dates:
        return []
    rows = []
    for M in Ms:
        scores = []
        n_skipped = 0
        for di, valid_date in enumerate(valid_dates):
            try:
                window = make_window(dataset, valid_date, M)
                model = fit_model(window, sem_config)
            except PrecipError:
                n_skipped += 1
                continue
            try:
                sites, fcst, obs = dm.day_arrays(dataset, valid_date)
            except NotFound:
                n_skipped += 1
                continue
            member_seed = np.random.SeedSequence(entropy=seed, spawn_key=(M, di))
            ens = fc.generate_site_ensemble(model, sites, fcst, n_members, member_seed)
            for j in range(len(sites)):
                scores.append(vf.crps_ensemble(ens.members[:, j], obs[j]))
        rows.append(
            {
                "M": M,
                "mean_crps": float(np.mean(scores)) if scores else float("nan"),
                "se_crps": float(np.std(scores, ddof=1) / np.sqrt(len(scores)))
                if len(scores) > 1 else float("nan"),
                "n_cases": len(scores),
                "n_skipped": n_skipped,
            }
        )
    return rows
