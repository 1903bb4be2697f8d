"""Parameter estimation from a sliding training window.

Stages, in order: probit occurrence trend, pairwise composite likelihood for
the occurrence range, OLS for the Gamma mean, constrained ML for the Gamma
variance, and a profile marginal likelihood for the amount range. Every
stage is a deterministic function of the window and the earlier stages; all
but the Gamma mean also return a dict of deterministic fit diagnostics.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, special

from . import data as dm
from . import fields as rf
from . import forecasting as fc
from . import transforms as tr
from .errors import (
    DegenerateOccurrence,
    DomainError,
    InsufficientData,
    NonpositiveMean,
    NoTrainingData,
    NumericalError,
    PrecipError,
    RangeUnidentifiable,
    SeparationDetected,
)

RANGE_SEARCH_KM = (1.0, 2000.0)
# Occurrence-range pairs: about three ranges at the 35 km synthetic truth,
# where the correlation is below 0.05 and a pair carries little information.
PAIR_CUTOFF_KM = 100.0
_RANGE_XTOL = 1e-3  # in log km
_MIN_NU0 = 1e-6

log = logging.getLogger("precipfield")


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
        """Parse :meth:`to_text` output. A missing parameter or one that is
        not a number raises :class:`DomainError` naming the key; a diagnostic
        reads back as a bool, an int, a float or else a string."""
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
                diag[key[5:]] = _diagnostic_value(val)
                continue
            try:
                kv[key] = float(val)
            except ValueError:
                raise DomainError(f"model key {key!r}: {val!r} is not a number") from None
        try:
            return cls(
                occurrence=tr.OccurrenceTrendParams(kv["gamma0"], kv["gamma1"], kv["gamma2"]),
                rho=rf.ExpCorrelation(kv["rho_km"]),
                amount=tr.GammaCoeffs(kv["eta0"], kv["eta1"], kv["eta2"], kv["nu0"], kv["nu1"]),
                r=rf.ExpCorrelation(kv["r_km"]),
                diagnostics=diag,
            )
        except KeyError as exc:
            raise DomainError(f"model file lacks key {exc.args[0]!r}") from None


def _diagnostic_value(val):
    if val in ("True", "False"):
        return val == "True"
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            pass
    return val


def make_window(dataset, valid_date, M):
    """The min(M, available) most recent dates strictly before valid_date."""
    if M < 1:
        raise DomainError(f"window length must be at least 1 day, got {M}")
    last = bisect.bisect_left(dataset.dates, valid_date)
    if last == 0:
        raise NoTrainingData(f"no dates before {valid_date}")
    first = max(last - M, 0)
    days = {}
    for i in range(first, last):
        lo, hi = dataset.offsets[i], dataset.offsets[i + 1]
        days[dataset.dates[i]] = {"xy": dataset.xy[lo:hi], "obs": dataset.obs[lo:hi],
                                  "fcst": dataset.fcst[lo:hi]}
    return TrainingWindow(days=days, M=M, short=last - first < M)


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
    Returns the coefficients and ``{"probit_iterations": scoring steps}``.
    """
    obs, _, fcst_cr, zero_flag = window.pooled()
    wet = (obs > 0).astype(float)
    if wet.min() == wet.max():
        raise DegenerateOccurrence("window is all-wet or all-dry")
    design, dropped = _drop_constant_indicator(_probit_design(fcst_cr, zero_flag))

    beta = np.zeros(design.shape[1])
    loglik = _probit_loglik(beta, design, wet)
    for iteration in range(101):
        eta = design @ beta
        log_phi = -0.5 * eta ** 2 - 0.5 * math.log(2 * math.pi)
        lam1 = np.exp(log_phi - special.log_ndtr(eta))
        lam0 = np.exp(log_phi - special.log_ndtr(-eta))
        score = design.T @ (wet * lam1 - (1 - wet) * lam0)
        if np.linalg.norm(score) < 1e-8:
            break
        if iteration == 100:  # out of steps: accept a score that is merely small
            if np.linalg.norm(score) > 1e-6:
                raise SeparationDetected("probit did not converge in 100 iterations")
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
    gamma2 = 0.0 if dropped else float(beta[2])
    return (tr.OccurrenceTrendParams(float(beta[0]), float(beta[1]), gamma2),
            {"probit_iterations": iteration})


def _probit_loglik(beta, design, wet):
    eta = design @ beta
    return float(np.sum(wet * special.log_ndtr(eta) + (1 - wet) * special.log_ndtr(-eta)))


def _profile_range_objective(dev_by_group):
    """Sum of centered MVN log densities as a function of the range.

    ``dev_by_group`` is a list of (xy, dev_matrix) pairs where dev_matrix is
    (n_days, n_sites) of residuals sharing the geometry xy.
    """
    dists = [rf.pairwise_distances(xy) for xy, _ in dev_by_group]

    def objective(log_range):
        range_km = math.exp(log_range)
        return sum(rf.mvn_log_density(dev, rf.exp_correlation(d, range_km))
                   for d, (_, dev) in zip(dists, dev_by_group))

    return objective


def bivariate_normal_cdf(h, k, r):
    """P(X <= h, Y <= k) for standard normals with correlation r, element-wise.

    Owen's (1956) T-function form, which is 0/0 where h or k is zero and NaN
    at |r| = 1. There it takes the exact one-sided form P(X <= x, Y <= 0) =
    Phi(x)/2 - T(x, -r/sqrt(1-r^2)) (1/4 + asin(r)/(2 pi) at h = k = 0) and
    the |r| = 1 limit.
    """
    h, k, r = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (h, k, r)))
    r = np.clip(r, -1.0, 1.0)
    s = np.sqrt((1.0 - r) * (1.0 + r))
    out = np.empty(h.shape)
    plus, minus = r == 1.0, r == -1.0
    out[plus] = special.ndtr(np.minimum(h[plus], k[plus]))  # X = Y
    out[minus] = np.maximum(special.ndtr(h[minus]) - special.ndtr(-k[minus]), 0.0)  # X = -Y
    axis = ~(plus | minus) & ((h == 0.0) | (k == 0.0))
    x = np.where(h == 0.0, k, h)[axis]
    out[axis] = 0.5 * special.ndtr(x) - special.owens_t(x, -r[axis] / s[axis])
    rest = ~(plus | minus | axis)
    h, k, r, s = h[rest], k[rest], r[rest], s[rest]
    out[rest] = (0.5 * (special.ndtr(h) + special.ndtr(k))
                 - special.owens_t(h, (k - r * h) / (h * s))
                 - special.owens_t(k, (h - r * k) / (k * s))
                 - np.where(h * k > 0, 0.0, 0.5))
    return out


def _close_pairs(window):
    """Same-day site pairs closer than PAIR_CUTOFF_KM: indices of both sites
    into the pooled window records, and their distance."""
    first, second, dist = [], [], []
    offset = 0
    for day in window.days.values():
        i, j = np.triu_indices(len(day["obs"]), k=1)
        d = rf.pairwise_distances(day["xy"])[i, j]
        close = d < PAIR_CUTOFF_KM
        first.append(offset + i[close])
        second.append(offset + j[close])
        dist.append(d[close])
        offset += len(day["obs"])
    return np.concatenate(first), np.concatenate(second), np.concatenate(dist)


def fit_occurrence_range(window, trend):
    """Pairwise composite-likelihood estimate of the occurrence range.

    Each same-day pair of sites closer than PAIR_CUTOFF_KM contributes the
    probability of its observed wet (s = +1) and dry (s = -1) signs,
    Phi2(s_i mu_i, s_j mu_j; s_i s_j rho(d_ij)) with mu the probit trend
    (Heagerty & Lele 1998). Bounded Brent search over the log range
    maximizes the summed log probability. Returns the range in km and
    ``{"occurrence_pairs": n, "rho_evals": n}``."""
    if all(len(day["obs"]) < 2 for day in window.days.values()):
        raise RangeUnidentifiable("no day has two or more sites")
    first, second, dist = _close_pairs(window)
    if not dist.size:
        raise RangeUnidentifiable(
            f"no same-day site pair is closer than {PAIR_CUTOFF_KM:g} km")
    obs, _, fcst_cr, zero_flag = window.pooled()
    sign = np.where(obs > 0, 1.0, -1.0)
    signed_mean = sign * tr.occurrence_trend(trend, fcst_cr, zero_flag)
    h, k = signed_mean[first], signed_mean[second]
    sign_product = sign[first] * sign[second]
    tiny = np.finfo(float).tiny  # a pair impossible at every range (co-located, discordant)

    def objective(log_range):
        r = sign_product * rf.exp_correlation(dist, math.exp(log_range))
        return float(np.sum(np.log(np.maximum(bivariate_normal_cdf(h, k, r), tiny))))

    rho, evals = _maximize_range(objective)
    return rho, {"occurrence_pairs": int(dist.size), "rho_evals": evals}


def _maximize_range(objective):
    """Bounded Brent (Brent 1973) maximum of ``objective(log range)`` over
    RANGE_SEARCH_KM to _RANGE_XTOL: the range in km and the evaluation count
    (about a dozen; the 500 of scipy's cap would show a search that ran out)."""
    res = optimize.minimize_scalar(lambda x: -objective(x), method="bounded",
                                   bounds=[math.log(b) for b in RANGE_SEARCH_KM],
                                   options={"xatol": _RANGE_XTOL})
    if not math.isfinite(res.fun):
        raise NumericalError(f"range likelihood is {-res.fun} at its optimum")
    return math.exp(res.x), int(res.nfev)


def _at_bound(range_km):
    """Whether a fitted range lies within the search tolerance of either end
    of RANGE_SEARCH_KM, where a flat or monotone likelihood leaves it."""
    lo, hi = (math.log(b) for b in RANGE_SEARCH_KM)
    x = math.log(range_km)
    return x - lo <= _RANGE_XTOL or hi - x <= _RANGE_XTOL


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
    moment-parameterized Gamma, and its gradient in (nu0, nu1). With variance
    v = nu0 + nu1 * fcst, shape a = m^2 / v and scale b = v / m, each record
    adds dl/dv = (a / v)(digamma(a) + log b - log y - 1) + y m / v^2."""
    var = nu0 + nu1 * fcst_acc
    alpha = means ** 2 / var
    log_beta = np.log(var / means)
    log_y = np.log(y)
    loglik = np.sum(-special.gammaln(alpha) - alpha * log_beta
                    + (alpha - 1.0) * log_y - y * means / var)
    dvar = alpha / var * (special.digamma(alpha) + log_beta - log_y - 1.0) + y * means / var ** 2
    return float(loglik), np.array([dvar.sum(), dvar @ fcst_acc])


def fit_gamma_variance(window, eta):
    """Constrained ML for the Gamma variance coefficients.

    Maximizes the wet-record independence likelihood over nu0 >= _MIN_NU0,
    nu1 >= 0 by one L-BFGS-B search (Byrd et al. 1995) over (log nu0, nu1)
    from (residual variance, 0); nu1 = 0 exactly on that bound. Wet records
    with nonpositive implied mean are excluded. Returns (nu0, nu1) and the
    diagnostics variance_records_dropped, variance_evals, variance_converged.
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
        loglik, grad = _gamma_loglik(nu0, params[1], y, means, fcst_acc)
        return -loglik, -grad * (nu0, 1.0)

    res = optimize.minimize(neg, (math.log(resid_var), 0.0), jac=True, method="L-BFGS-B",
                            bounds=[(math.log(_MIN_NU0), None), (0.0, None)])
    if not (np.isfinite(res.fun) and np.all(np.isfinite(res.x))):
        raise NumericalError(f"variance likelihood is {-res.fun} at {res.x}")
    nu = (max(math.exp(res.x[0]), _MIN_NU0), float(res.x[1]))
    return nu, {"variance_records_dropped": n_dropped, "variance_evals": int(res.nfev),
                "variance_converged": bool(res.success)}


def fit_amount_range(window, eta, nu):
    """Profile marginal likelihood estimate of the amount range.

    Transforms wet cube-root amounts to Gaussian scores through the
    site-specific anamorphosis and maximizes the summed zero-mean MVN log
    density over the range. The Jacobian factors of the transformed-data
    likelihood do not depend on the range and are omitted. Returns the
    range in km and ``{"r_evals": n}``."""
    coeffs = tr.GammaCoeffs(*eta, *nu)
    groups = {}  # days with the same wet-site geometry share each Cholesky
    for day in window.days.values():
        wet = day["obs"] > 0
        fcst_cr = np.cbrt(day["fcst"][wet])
        zero_flag = day["fcst"][wet] == 0.0
        keep = tr.gamma_mean(eta, fcst_cr, zero_flag) > 0
        if keep.sum() < 2:
            continue
        alpha, beta, _ = tr.gamma_marginals(coeffs, fcst_cr[keep], zero_flag[keep])
        y = np.cbrt(day["obs"][wet][keep])
        xy = day["xy"][wet][keep]
        groups.setdefault(xy.tobytes(), (xy, []))[1].append(tr.gaussian_scores(y, alpha, beta))
    if not groups:
        raise RangeUnidentifiable("no day has two or more wet sites")
    dev_by_group = [(xy, np.array(devs)) for xy, devs in groups.values()]
    r_hat, evals = _maximize_range(_profile_range_objective(dev_by_group))
    return r_hat, {"r_evals": evals}


def _stage(name, fit, *args):
    """One fit stage, its errors tagged with the stage name."""
    try:
        return fit(*args)
    except PrecipError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


def fit_model(window):
    """Run the full staged fit; atomic (raises on any stage failure)."""
    trend, probit_diag = _stage("probit", fit_probit_trend, window)
    rho, rho_diag = _stage("occurrence_range", fit_occurrence_range, window, trend)
    eta = _stage("gamma_mean", fit_gamma_mean, window)
    nu, nu_diag = _stage("gamma_variance", fit_gamma_variance, window, eta)
    r_hat, r_diag = _stage("amount_range", fit_amount_range, window, eta, nu)
    diagnostics = {**probit_diag, **rho_diag, **nu_diag, **r_diag,
                   "rho_at_bound": _at_bound(rho), "r_at_bound": _at_bound(r_hat)}

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


def warn_fit_diagnostics(model, valid_date, M):
    """Log a WARNING when a range fitted for ``valid_date`` with window
    length ``M`` stopped at an end of ``RANGE_SEARCH_KM``, and one when its
    variance search did not converge."""
    diag = model.diagnostics
    hits = [f"{name} = {corr.range_km!r}"
            for name, corr, flag in (("rho_km", model.rho, "rho_at_bound"),
                                     ("r_km", model.r, "r_at_bound"))
            if diag.get(flag)]
    if hits:
        log.warning("%s M=%d: %s at the search bound %s km; scoring it anyway",
                    valid_date, M, ", ".join(hits), RANGE_SEARCH_KM)
    if not diag.get("variance_converged", True):
        log.warning("%s M=%d: the Gamma variance search stopped unconverged after %d "
                    "evaluations at nu0 = %r, nu1 = %r; scoring it anyway", valid_date, M,
                    diag["variance_evals"], model.amount.nu0, model.amount.nu1)


def date_step(dataset, valid_date, M, forecast):
    """One step of rolling verification: fit on the ``M`` days before
    ``valid_date`` (warning about its diagnostics), look up that date's
    sites, forecasts and observations, and draw ``forecast(model, sites,
    fcst)``. Returns ``(sites, fcst, obs, drawn)``, or None when a stage
    raises a PrecipError: the date is then skipped with a WARNING naming
    the stage (window, fit, load or forecast) and the error."""
    stage = "window"
    try:
        window = make_window(dataset, valid_date, M)
        stage = "fit"
        model = fit_model(window)
        warn_fit_diagnostics(model, valid_date, M)
        stage = "load"
        sites, fcst, obs = dm.day_arrays(dataset, valid_date)
        stage = "forecast"
        return sites, fcst, obs, forecast(model, sites, fcst)
    except PrecipError as exc:
        log.warning("skip %s at stage %s: %s: %s",
                    valid_date, stage, type(exc).__name__, exc)
        return None


def window_sweep(dataset, valid_dates, Ms, n_members, seed):
    """Mean site-level ensemble CRPS per training-window length.

    Returns a list of rows {M, mean_crps, se_crps, n_cases, n_skipped}; a
    (M, date) cell that :func:`date_step` skips is counted in n_skipped.
    """
    from . import verification as vf  # verification imports this module

    if not valid_dates:
        return []
    rows = []
    for M in Ms:
        scores = []
        n_skipped = 0
        for di, valid_date in enumerate(valid_dates):
            def draw(model, sites, fcst):
                member_seed = np.random.SeedSequence(entropy=seed, spawn_key=(M, di))
                return fc.generate_site_ensemble(model, sites, fcst, n_members, member_seed)

            step = date_step(dataset, valid_date, M, draw)
            if step is None:
                n_skipped += 1
                continue
            _, _, obs, ens = step
            for j in range(len(obs)):
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
