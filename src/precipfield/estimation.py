"""Parameter estimation from a sliding training window.

Stages, in order: probit occurrence trend, pairwise composite likelihood for
the occurrence range, OLS for the Gamma mean, constrained ML for the Gamma
variance and a pairwise Gaussian composite likelihood for the amount range.
The four searches (the probit, the two ranges and the variance) run through
one Newton search, :func:`_newton_max`; the probit and the Gamma mean share
one trend design (:func:`_trend_design`), and the two ranges share their
close pairs of sites and one range search (:func:`_fit_range`). Every stage
is a deterministic function of the window and the earlier stages; all but
the Gamma mean also return a dict of deterministic fit diagnostics.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy import special

from . import fields as rf
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
# Range pairs: about three ranges at the 35 km synthetic truth,
# where the correlation is below 0.05 and a pair carries little information.
PAIR_CUTOFF_KM = 100.0
_RANGE_XTOL = 1e-3  # _fit_range's at-bound tolerance, in log km
# The Newton search of the two ranges and the Gamma variance: the
# largest move of a coordinate in one step, the stopping gain (the score times
# the step, twice the gain in log likelihood the Newton model predicts) and
# the step count after which it reports no convergence; the range starts here.
_NEWTON_MAX_STEP = 2.0
_NEWTON_GAIN_TOL = 1e-10
_NEWTON_MAX_STEPS = 50
_NEWTON_START_KM = 50.0
_MIN_NU0 = 1e-6
_LOG2PI = math.log(2.0 * math.pi)


class TrainingWindow:
    """The rows of the most recent dates strictly before a valid date: a span
    view of the dataset (``rows``), whose ``site``, ``date`` (counted from the
    first date) and ``obs`` columns it exposes, and the forecast as each row's
    cube root and zero flag. ``site_dist`` is the distance matrix of the
    dataset's sites and ``close_pairs`` the window's same-day pairs of sites
    closer than PAIR_CUTOFF_KM, each computed at its first use."""

    def __init__(self, rows):
        self.rows = rows
        self.site, self.date, self.obs = rows.site, rows.date, rows.obs
        self.fcst_cr, self.zero_flag = np.cbrt(rows.fcst), rows.fcst == 0.0

    @functools.cached_property
    def site_dist(self):
        return rf.pairwise_distances(self.rows.site_xy)

    @functools.cached_property
    def close_pairs(self):
        """The row positions of both sites of each same-day pair closer than
        PAIR_CUTOFF_KM, and their distance. The close pairs of the site
        distance matrix are kept, day by day and in site order, where a
        (days, sites) table of row positions has both sites reporting."""
        first, second = np.nonzero(np.triu(self.site_dist < PAIR_CUTOFF_KM, k=1))
        row = np.full((len(self.rows.dates), len(self.rows.sites)), -1)
        row[self.date, self.site] = np.arange(len(self.site))
        day, pair = np.nonzero((row[:, first] >= 0) & (row[:, second] >= 0))
        first, second = first[pair], second[pair]
        return row[day, first], row[day, second], self.site_dist[first, second]

    @property
    def days(self):  # date -> row views; read only by perfbench, goes with ROADMAP item 1 PR B
        r = self.rows
        return {date: {"xy": r.xy[lo:hi], "obs": r.obs[lo:hi], "fcst": r.fcst[lo:hi]}
                for date, lo, hi in zip(r.dates, r.offsets[:-1], r.offsets[1:])}


@dataclass
class FittedModel:
    """All parameters of the two-stage spatial model plus fit diagnostics."""

    occurrence: tr.OccurrenceTrendParams
    rho: rf.ExpCorrelation
    amount: tr.GammaCoeffs
    r: rf.ExpCorrelation
    diagnostics: dict = field(default_factory=dict)

    def to_text(self):
        params = {**asdict(self.occurrence), "rho_km": self.rho.range_km,
                  **asdict(self.amount), "r_km": self.r.range_km}
        lines = [f"{key} = {val:.15g}" for key, val in params.items()]
        for key in sorted(self.diagnostics):
            val = self.diagnostics[key]
            if isinstance(val, float):
                lines.append(f"diag.{key} = {val:.15g}")
            else:
                lines.append(f"diag.{key} = {val}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Parse :meth:`to_text` output. A missing, repeated or unknown
        parameter, one that is not a number and a repeated diagnostic raise
        :class:`DomainError` naming the key; a diagnostic reads back as a
        bool, an int, a float or else a string. The one diagnostic a forecast
        reads, ``min_training_mean``, must be a positive finite number where
        it is given."""
        kv = {}
        diag = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key in kv or (key.startswith("diag.") and key[5:] in diag):
                raise DomainError(f"model key {key!r} is given twice")
            if key.startswith("diag."):
                diag[key[5:]] = _diagnostic_value(val)
                continue
            try:
                kv[key] = float(val)
            except ValueError:
                raise DomainError(f"model key {key!r}: {val!r} is not a number") from None
        fallback = diag.get("min_training_mean")
        if fallback is not None and (type(fallback) not in (int, float)
                                     or not 0.0 < fallback < math.inf):
            raise DomainError(f"model key 'diag.min_training_mean': {fallback!r} is not "
                              "a positive finite number")
        try:
            model = cls(
                occurrence=_pop_fields(kv, tr.OccurrenceTrendParams),
                rho=rf.ExpCorrelation(kv.pop("rho_km")),
                amount=_pop_fields(kv, tr.GammaCoeffs),
                r=rf.ExpCorrelation(kv.pop("r_km")),
                diagnostics=diag,
            )
        except KeyError as exc:
            raise DomainError(f"model file lacks key {exc.args[0]!r}") from None
        if kv:
            raise DomainError(f"model key {next(iter(kv))!r} is not a model parameter")
        return model


def _pop_fields(kv, params):
    """The dataclass ``params`` built from the values of its fields, each
    taken out of ``kv`` by name."""
    return params(**{f.name: kv.pop(f.name) for f in fields(params)})


def truth_model(spec):
    """The true parameters of a synthetic world (a ``data.SynthSpec``) as a
    model without diagnostics."""
    return FittedModel(occurrence=tr.OccurrenceTrendParams(*spec.gamma),
                       rho=rf.ExpCorrelation(spec.rho_km),
                       amount=tr.GammaCoeffs(*spec.eta, *spec.nu),
                       r=rf.ExpCorrelation(spec.r_km))


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
    return TrainingWindow(dataset.span(max(last - M, 0), last))


def _trend_design(fcst_cr, zero_flag):
    """The trend design (1, fcst^1/3, zero flag) of the probit and the Gamma
    mean, and whether the zero flag was dropped: it is where it carries no
    contrast, its coefficient then reported as 0. Raises
    :class:`InsufficientData` where the design is rank-deficient, as where
    the forecast is constant."""
    design = np.column_stack([np.ones_like(fcst_cr), fcst_cr, zero_flag.astype(float)])
    dropped = bool(zero_flag.min() == zero_flag.max())
    if dropped:
        design = design[:, :2]
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise InsufficientData("rank-deficient trend design (1, fcst^1/3, zero flag)")
    return design, dropped


def fit_probit_trend(window):
    """Maximum-likelihood probit for occurrence on the trend design
    (:func:`_trend_design`).

    :func:`_newton_max` maximizes the log likelihood sum log Phi(s eta), s =
    +1 wet and -1 dry and eta the trend, over the unbounded coefficients from
    zero, on the score sum s x phi(eta) / Phi(s eta) and the expected
    information sum x x' phi(eta)^2 / (Phi(eta) Phi(-eta)). A search that
    does not converge, or that ends with every record on its own side of the
    trend (where scaling the coefficients up raises the likelihood without
    bound), raises :class:`SeparationDetected`. Returns the coefficients and
    ``{"probit_evals": n}``.
    """
    wet = window.obs > 0
    if wet.all() or not wet.any():
        raise DegenerateOccurrence("window is all-wet or all-dry")
    design, dropped = _trend_design(window.fcst_cr, window.zero_flag)
    signed = design * np.where(wet, 1.0, -1.0)[:, None]

    def loglik(beta):
        eta = signed @ beta  # s times the trend
        log_cdf, log_pdf = special.log_ndtr(eta), -0.5 * eta * eta - 0.5 * _LOG2PI
        lam = np.exp(log_pdf - log_cdf)

        def information():
            weight = lam * np.exp(log_pdf - special.log_ndtr(-eta))
            return (design.T @ (design * weight[:, None])).tolist()

        return float(np.sum(log_cdf)), (signed.T @ lam).tolist(), information

    p = design.shape[1]
    beta, evals, converged = _newton_max(loglik, [0.0] * p, [-math.inf] * p, [math.inf] * p)
    if not converged or (signed @ beta > 0.0).all():
        raise SeparationDetected("the forecast separates wet from dry: the probit search "
                                 f"found no maximum in {evals} evaluations")
    gamma2 = 0.0 if dropped else beta[2]
    return tr.OccurrenceTrendParams(beta[0], beta[1], gamma2), {"probit_evals": evals}


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


def fit_occurrence_range(window, trend):
    """Pairwise composite-likelihood estimate of the occurrence range.

    Each same-day pair of sites closer than PAIR_CUTOFF_KM contributes the
    probability of its observed wet (s = +1) and dry (s = -1) signs,
    Phi2(s_i mu_i, s_j mu_j; s_i s_j rho(d_ij)) with mu the probit trend
    (Heagerty & Lele 1998). :func:`_fit_range` maximizes the summed log
    probability. Returns the range in km and the diagnostics
    ``occurrence_pairs`` and those of :func:`_fit_range` named ``rho``."""
    if np.bincount(window.date).max() < 2:
        raise RangeUnidentifiable("no day has two or more sites")
    first, second, dist = window.close_pairs
    if not dist.size:
        raise RangeUnidentifiable(
            f"no same-day site pair is closer than {PAIR_CUTOFF_KM:g} km")
    sign = np.where(window.obs > 0, 1.0, -1.0)
    signed_mean = sign * tr.occurrence_trend(trend, window.fcst_cr, window.zero_flag)
    rho, diag = _fit_range(_pair_loglik(signed_mean[first], signed_mean[second],
                                        sign[first] * sign[second], dist), "rho")
    return rho, {"occurrence_pairs": int(dist.size), **diag}


def _fit_range(loglik, name):
    """The range in RANGE_SEARCH_KM, searched from _NEWTON_START_KM, that
    maximizes ``loglik`` of x = [log range] (:func:`_newton_max`'s form), and
    the diagnostics ``{name}_evals``, ``{name}_converged`` and
    ``{name}_at_bound``: whether it lies within _RANGE_XTOL of either end."""
    lo, hi = (math.log(b) for b in RANGE_SEARCH_KM)
    (x,), evals, converged = _newton_max(loglik, [math.log(_NEWTON_START_KM)], [lo], [hi])
    return math.exp(x), {f"{name}_evals": evals, f"{name}_converged": converged,
                         f"{name}_at_bound": x - lo <= _RANGE_XTOL or hi - x <= _RANGE_XTOL}


def _pair_loglik(h, k, sign_product, dist):
    """The pairwise log likelihood sum log Phi2(h, k; r) of the occurrence
    range, r = sign_product * exp(-dist / range), over x = [log range] in the
    form of :func:`_newton_max`: value, [score], and [[curvature]] (minus the
    second derivative) from a function of no arguments.

    Plackett's (1954) identity dPhi2/dr = phi2 gives, with lam = phi2 / Phi2,
    the derivatives lam and lam dlog phi2/dr - lam^2 in r
    (:func:`_log_pdf2`), which :func:`_log_range_derivatives` carries to x. A
    pair whose probability is floored at ``tiny`` (impossible at every range:
    co-located and discordant) or whose correlation rounds to +-1
    (co-located) is constant in the range and adds to neither."""
    tiny = np.finfo(float).tiny

    def loglik(x):
        range_km = math.exp(x[0])
        r = sign_product * rf.exp_correlation(dist, range_km)
        cdf = bivariate_normal_cdf(h, k, r)
        value = float(np.sum(np.log(np.maximum(cdf, tiny))))
        live = (cdf > tiny) & (np.abs(r) < 1.0)
        rl = r[live]
        log_pdf, dlog_pdf, _ = _log_pdf2(h[live], k[live], rl)
        lam = np.exp(log_pdf - np.log(cdf[live]))
        return (value, *_log_range_derivatives(lam, lambda: lam * dlog_pdf - lam * lam, rl,
                                               dist[live] / range_km))

    return loglik


def _log_pdf2(h, k, r):
    """The standard bivariate normal log density log phi2(h, k; r), its
    derivative in the correlation r and a function of no arguments that
    returns its second derivative in r, element-wise for |r| < 1. With s = 1
    - r^2 and q = h^2 - 2 r h k + k^2, log phi2 = -q / 2s - log(s) / 2 - log
    2 pi, its derivative is (r + h k) / s - r q / s^2 and its second
    derivative 1 / s + (2 r^2 + 4 r h k - q) / s^2 - 4 r^2 q / s^3."""
    s = (1.0 - r) * (1.0 + r)
    q = h * h - 2.0 * r * h * k + k * k
    log_pdf = -0.5 * q / s - 0.5 * np.log(s) - _LOG2PI
    first = (r + h * k) / s - r * q / s ** 2
    return log_pdf, first, lambda: (1.0 / s + (2.0 * r * r + 4.0 * r * h * k - q) / s ** 2
                                    - 4.0 * r * r * q / s ** 3)


def _log_range_derivatives(first, second, r, ratio):
    """The [score] and a function of no arguments for the [[curvature]]
    (minus the second derivative) in x = log range, the form of
    :func:`_newton_max`, of a sum of terms f(r), r = c exp(-d / range) for a
    constant c, from each term's first derivative in r, a function of no
    arguments for its second and its d / range (``ratio``): r' = r d/R and
    r'' = r (d/R)(d/R - 1) give the score sum f' r' and the second
    derivative sum f'' r'^2 + f' r''."""
    dr = r * ratio
    return ([float(np.sum(first * dr))],
            lambda: [[-float(np.sum(second() * dr * dr + first * dr * (ratio - 1.0)))]])


def fit_gamma_mean(window):
    """OLS of cube-root wet amounts on the trend design of the wet records
    (:func:`_trend_design`)."""
    wet = window.obs > 0
    if wet.sum() < 3:
        raise InsufficientData(f"only {int(wet.sum())} wet records")
    design, dropped = _trend_design(window.fcst_cr[wet], window.zero_flag[wet])
    coef = np.linalg.lstsq(design, np.cbrt(window.obs[wet]), rcond=None)[0]
    eta2 = 0.0 if dropped else float(coef[2])
    return float(coef[0]), float(coef[1]), eta2


def _gamma_loglik(nu0, nu1, y, means, fcst_acc):
    """Independence log likelihood of wet cube-root amounts under the
    moment-parameterized Gamma, its gradient in (nu0, nu1), and a function of
    no arguments that returns its 2 x 2 Hessian there. With variance v = nu0
    + nu1 * fcst, shape a = m^2 / v and scale b = v / m, each record adds
    dl/dv = (a / v)(digamma(a) + log b - log y - 1) + y m / v^2 and d2l/dv2 =
    (a (1 - a trigamma(a)) - 2 v dl/dv) / v^2."""
    var = nu0 + nu1 * fcst_acc
    alpha = means ** 2 / var
    log_beta = np.log(var / means)
    log_y = np.log(y)
    loglik = np.sum(-special.gammaln(alpha) - alpha * log_beta
                    + (alpha - 1.0) * log_y - y * means / var)
    dvar = alpha / var * (special.digamma(alpha) + log_beta - log_y - 1.0) + y * means / var ** 2

    def hessian():
        d2var = (alpha * (1.0 - alpha * special.zeta(2.0, alpha)) - 2.0 * var * dvar) / var ** 2
        cross = float(d2var @ fcst_acc)
        return np.array([[d2var.sum(), cross], [cross, d2var @ fcst_acc ** 2]])

    return float(loglik), np.array([dvar.sum(), dvar @ fcst_acc]), hessian


def fit_gamma_variance(window, eta):
    """Constrained ML for the Gamma variance coefficients.

    Maximizes the wet-record independence likelihood of
    :func:`_gamma_loglik` over nu0 >= _MIN_NU0, nu1 >= 0 by a safeguarded
    projected Newton search (:func:`_newton_max`) over (log nu0, nu1) from
    the moment estimate, the least-squares line of the squared residuals on
    the forecast (or from the residual variance and nu1 = 0 where that line
    puts nu0 below 10 _MIN_NU0); nu1 = 0 exactly on its bound. The forecast
    is the cube of its cube root, as :func:`transforms.gamma_marginals`
    evaluates the variance. Wet records with nonpositive implied mean are
    excluded. Returns (nu0, nu1) and the diagnostics
    variance_records_dropped, variance_evals, variance_converged,
    n_wet_records and min_training_mean, the smallest positive implied mean:
    the forecast-time fallback where a site's implied mean is nonpositive.
    """
    wet = window.obs > 0
    if wet.sum() < 10:
        raise InsufficientData(f"only {int(wet.sum())} wet records")
    y = np.cbrt(window.obs[wet])
    means = tr.gamma_mean(eta, window.fcst_cr[wet], window.zero_flag[wet])
    usable = means > 0
    if not usable.any():
        raise NonpositiveMean("all implied means are nonpositive")
    n_dropped = int((~usable).sum())
    y, means = y[usable], means[usable]
    fcst_acc = np.float_power(window.fcst_cr[wet][usable], 3)

    # Start from the moment estimate: squared residuals regressed on the forecast.
    resid_sq, fcst_dev = (y - means) ** 2, fcst_acc - fcst_acc.mean()
    fcst_ss = float(fcst_dev @ fcst_dev)
    nu1 = max(float(fcst_dev @ resid_sq) / fcst_ss, 0.0) if fcst_ss > 0.0 else 0.0
    nu0 = float(resid_sq.mean()) - nu1 * float(fcst_acc.mean())
    if nu0 < 10 * _MIN_NU0:
        nu0, nu1 = max(float(np.var(y - means)), 10 * _MIN_NU0), 0.0

    def loglik(x):  # the likelihood over (log nu0, nu1), by the chain rule
        nu0 = math.exp(x[0])
        value, grad, hessian = _gamma_loglik(nu0, x[1], y, means, fcst_acc)
        d0, d1 = grad.tolist()

        def curvature():
            (h00, h01), (_, h11) = hessian().tolist()
            return [[-nu0 * (nu0 * h00 + d0), -nu0 * h01], [-nu0 * h01, -h11]]

        return value, [nu0 * d0, d1], curvature

    (x0, nu1), evals, converged = _newton_max(loglik, [math.log(nu0), nu1],
                                              [math.log(_MIN_NU0), 0.0], [math.inf] * 2)
    nu = max(math.exp(x0), _MIN_NU0), nu1
    return nu, {"variance_records_dropped": n_dropped, "variance_evals": evals,
                "variance_converged": converged, "n_wet_records": int(wet.sum()),
                "min_training_mean": float(means.min())}


def _newton_max(loglik, x, lo, hi):
    """Safeguarded projected Newton maximum of ``loglik`` over the box lo <= x
    <= hi (lists of floats; a bound may be infinite), from x.

    ``loglik(x)`` returns the value, the score and a function of no arguments
    that returns the curvature (minus the Hessian), which is called only at
    accepted points. A coordinate on its bound is held there while its score
    points past it. The step solves the Newton system where the curvature is
    positive definite (:func:`_newton_step`); elsewhere each coordinate steps
    by its score over its own curvature, or by one unit along its score where
    that curvature is not positive. The step is scaled so that no coordinate
    moves more than _NEWTON_MAX_STEP, projected onto the box and halved while
    it loses or gives a likelihood that is not finite. Stops when the score
    times the step (twice the gain the Newton model predicts) is at most
    _NEWTON_GAIN_TOL, or halving has brought it there. Returns x, the
    evaluation count and whether it stopped before _NEWTON_MAX_STEPS steps;
    raises :class:`NumericalError` where the value, score or curvature at an
    accepted point is not finite.

    The curvature is deferred not to save work (only 4 of 2,045 evaluations
    over 332 searches were rejected trials) but because the function keeps
    the last accepted evaluation's arrays alive until the next: computed
    eagerly, keeping nothing, it made a 100 x 160 fit about a tenth slower on
    a 2-core host, as if the allocator returned the memory in between."""
    value, score, curvature = loglik(x)
    evals = 1
    for _ in range(_NEWTON_MAX_STEPS):
        curv = curvature()
        if not all(map(math.isfinite, [value, *score, *(c for row in curv for c in row)])):
            raise NumericalError(f"likelihood {value}, score {score} and curvature {curv} "
                                 f"at x = {x}")
        held = [(xi <= a and g <= 0.0) or (xi >= b and g >= 0.0)
                for xi, g, a, b in zip(x, score, lo, hi)]
        score = [0.0 if held_i else g for held_i, g in zip(held, score)]
        curv = [[float(i == j) if held[i] or held[j] else c for j, c in enumerate(row)]
                for i, row in enumerate(curv)]
        step = _newton_step(score, curv)
        if step is None:
            step = [g / row[i] if row[i] > 0.0 else math.copysign(1.0, g)
                    for i, (g, row) in enumerate(zip(score, curv))]
        gain = sum(g * s for g, s in zip(score, step))
        t = _NEWTON_MAX_STEP / max(_NEWTON_MAX_STEP, *map(abs, step))
        while t * gain > _NEWTON_GAIN_TOL:
            x_new = [min(max(xi + t * si, a), b) for xi, si, a, b in zip(x, step, lo, hi)]
            trial = loglik(x_new)
            evals += 1
            if math.isfinite(trial[0]) and trial[0] >= value:
                break
            t *= 0.5
        else:
            return x, evals, True
        x, (value, score, curvature) = x_new, trial
    return x, evals, False


def _newton_step(score, curv):
    """The Newton step, the solution of curv @ step = score, by elimination
    without pivoting; None where a pivot is not positive, that is where the
    (symmetric) curvature is not positive definite."""
    n = len(score)
    rows = [row + [g] for row, g in zip(curv, score)]
    for i in range(n):
        pivot = rows[i][i]
        if not pivot > 0.0:
            return None
        for j in range(i + 1, n):
            f = rows[j][i] / pivot
            rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
    step = [0.0] * n
    for i in reversed(range(n)):
        step[i] = (rows[i][n] - sum(rows[i][k] * step[k] for k in range(i + 1, n))) / rows[i][i]
    return step


def fit_amount_range(window, eta, nu):
    """Pairwise Gaussian composite-likelihood estimate of the amount range.

    The kept records, wet with a positive implied mean, are transformed to
    Gaussian scores z through the site-specific anamorphosis. Each same-day
    pair of kept records at distinct sites closer than PAIR_CUTOFF_KM adds
    log phi2(z_i, z_j; exp(-d_ij / range)) (Curriero & Lele 1999), which
    :func:`_fit_range` maximizes, as for the occurrence range. A co-located
    pair is left out: its correlation is 1 at every range. The Jacobian of
    the transform does not depend on the range and is omitted. Returns the
    range in km and the diagnostics ``r_pairs`` and those of
    :func:`_fit_range` named ``r``."""
    kept = (window.obs > 0) & (tr.gamma_mean(eta, window.fcst_cr, window.zero_flag) > 0)
    first, second, dist = window.close_pairs
    use = kept[first] & kept[second] & (dist > 0.0)
    if not use.any():
        raise RangeUnidentifiable("no same-day pair of wet sites is closer than "
                                  f"{PAIR_CUTOFF_KM:g} km")
    alpha, beta, _ = tr.gamma_marginals(tr.GammaCoeffs(*eta, *nu), window.fcst_cr[kept],
                                        window.zero_flag[kept])
    scores = np.zeros(len(kept))
    scores[kept] = tr.gaussian_scores(np.cbrt(window.obs[kept]), alpha, beta)
    r_hat, diag = _fit_range(_gauss_pair_loglik(scores[first[use]], scores[second[use]],
                                                dist[use]), "r")
    return r_hat, {"r_pairs": int(use.sum()), **diag}


def _gauss_pair_loglik(z1, z2, dist):
    """The pairwise log likelihood sum log phi2(z1, z2; exp(-dist / range))
    of the amount range over x = [log range], in the form of
    :func:`_newton_max`, with the exact curvature (:func:`_log_pdf2`,
    :func:`_log_range_derivatives`)."""
    def loglik(x):
        range_km = math.exp(x[0])
        r = rf.exp_correlation(dist, range_km)
        log_pdf, first, second = _log_pdf2(z1, z2, r)
        return (float(np.sum(log_pdf)),
                *_log_range_derivatives(first, second, r, dist / range_km))

    return loglik


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
    return FittedModel(
        occurrence=trend,
        rho=rf.ExpCorrelation(rho),
        amount=tr.GammaCoeffs(*eta, *nu),
        r=rf.ExpCorrelation(r_hat),
        diagnostics={**probit_diag, **rho_diag, **nu_diag, **r_diag},
    )


def window_sweep(dataset, valid_dates, Ms, n_members, seed):
    """:func:`verification.window_sweep`, kept under this name for callers."""
    from .verification import window_sweep  # verification imports this module
    return window_sweep(dataset, valid_dates, Ms, n_members, seed)
