"""Outside-in tracing of precipfield's public functions.

While a :class:`Tracer` is installed, every function listed in ``TARGETS`` is
replaced on its module or class by a timing wrapper; uninstalling restores
the originals. The package calls its own layers through module attributes
and module globals (``est.fit_model``, ``rf.cholesky_pd``, the global
``truncated_normal_draw`` inside ``fields``), so the wrappers see inner calls
as well as the calls the benchmark makes. No file of the package changes.

Each wrapped call adds one to ``<name>.calls``, its duration to
``<name>.total_s`` and its self time (duration minus the time covered by
wrapped calls made inside it) to ``<name>.self_s``; hooks add work counts.
Span records (name, start, end, parent span, operation id) are kept in
memory, except for functions marked count-only because they run more than
1e5 times per operation. A target the package no longer has is skipped and
listed in ``missing``; a hook that no longer fits the package's data types
is counted in ``trace.hook_errors`` instead of failing the call.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

PACKAGE = "precipfield"
_COUNT_ONLY = "count-only"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _fit_model_work(args, kwargs, model):
    window = _arg(args, kwargs, 0, "window")
    return {
        "estimation.fit_model.site_days": sum(len(d["obs"]) for d in window.days.values()),
        # Synthetic worlds are drawn with rho = 35 km and r = 25 km.
        "estimation.fit_model.range_err_sum": abs(model.rho.range_km - 35.0) / 35.0
        + abs(model.r.range_km - 25.0) / 25.0,
        "estimation.fit_model.range_err_terms": 2,
    }


# Per-layer metrics that are ratios of two recorded amounts.
DERIVED = {
    "estimation.fit_model.range_rel_err": ("estimation.fit_model.range_err_sum",
                                           "estimation.fit_model.range_err_terms"),
    "estimation.fit_model.s_per_site_day": ("estimation.fit_model.total_s",
                                            "estimation.fit_model.site_days"),
    "fields.truncated_normal_draw.draws_per_call": ("fields.truncated_normal_draw.draws",
                                                    "fields.truncated_normal_draw.calls"),
}


# (qualified name, module, attribute path, work hook or None[, "count-only"])
# A work hook maps (args, kwargs, result) to {metric name: amount}.
TARGETS = [
    ("cli.synth", "cli", "synth.callback", None),
    ("cli.fit", "cli", "fit.callback", None),
    ("cli.forecast", "cli", "forecast.callback", None),
    ("cli.verify", "cli", "verify.callback", None),
    ("cli.run_verification", "cli", "run_verification",
     lambda a, k, r: {"cli.verify.skipped_dates": r[1]}),
    ("data.load_dataset", "data", "load_dataset",
     lambda a, k, r: {"data.load_dataset.rows": len(r)}),
    ("data.save_dataset", "data", "save_dataset",
     lambda a, k, r: {"data.save_dataset.rows": len(_arg(a, k, 0, "ds"))}),
    ("data.synth_generate", "data", "synth_generate",
     lambda a, k, r: {"data.synth_generate.rows": len(r)}),
    ("data.split_by_date", "data", "split_by_date", None),
    ("data.Dataset.by_date", "data", "Dataset.by_date", None),
    ("estimation.make_window", "estimation", "make_window", None),
    ("estimation.fit_model", "estimation", "fit_model", _fit_model_work),
    ("estimation.fit_probit_trend", "estimation", "fit_probit_trend", None),
    ("estimation.fit_occurrence_range", "estimation", "fit_occurrence_range", None),
    ("estimation.fit_gamma_mean", "estimation", "fit_gamma_mean", None),
    ("estimation.fit_gamma_variance", "estimation", "fit_gamma_variance", None),
    ("estimation.fit_amount_range", "estimation", "fit_amount_range", None),
    ("estimation.golden_section_max", "estimation", "golden_section_max", None),
    ("fields.correlation_matrix", "fields", "correlation_matrix", None),
    ("fields.cholesky_pd", "fields", "cholesky_pd", None),
    ("fields.CirculantEmbedding.init", "fields", "CirculantEmbedding.__init__", None),
    ("fields.CirculantEmbedding.sample", "fields", "CirculantEmbedding.sample", None),
    ("fields.GibbsTruncatedMVN.init", "fields", "GibbsTruncatedMVN.__init__", None),
    ("fields.GibbsTruncatedMVN.sweep", "fields", "GibbsTruncatedMVN.sweep", None),
    ("fields.truncated_normal_draw", "fields", "truncated_normal_draw",
     lambda a, k, r: {"fields.truncated_normal_draw.draws": int(np.size(r))}, _COUNT_ONLY),
    ("transforms.gamma_marginal", "transforms", "gamma_marginal", None),
    ("transforms.anamorphosis", "transforms", "anamorphosis", None),
    ("transforms.anamorphosis_inverse", "transforms", "anamorphosis_inverse", None),
    ("forecasting.generate_site_ensemble", "forecasting", "generate_site_ensemble", None),
    ("forecasting.independence_baseline_ensemble", "forecasting",
     "independence_baseline_ensemble", None),
    ("forecasting.areal_ensemble", "forecasting", "areal_ensemble", None),
    ("forecasting.generate_grid_ensemble", "forecasting", "generate_grid_ensemble", None),
    ("forecasting.write_site_ensemble_csv", "forecasting", "write_site_ensemble_csv",
     lambda a, k, r: {"forecasting.write_site_ensemble_csv.rows":
                      int(_arg(a, k, 0, "ens").members.size)}),
    ("forecasting.write_grid_ensemble_csvs", "forecasting", "write_grid_ensemble_csvs",
     lambda a, k, r: {"forecasting.write_grid_ensemble_csvs.rows":
                      int(_arg(a, k, 0, "ens").members.size)}),
    ("forecasting.write_scalar_ensemble_csv", "forecasting", "write_scalar_ensemble_csv",
     lambda a, k, r: {"forecasting.write_scalar_ensemble_csv.rows":
                      int(np.size(_arg(a, k, 0, "values")))}),
    ("verification.crps_ensemble", "verification", "crps_ensemble",
     lambda a, k, r: {"verification.crps_ensemble.pairs":
                      int(np.size(_arg(a, k, 0, "members"))) ** 2}),
    ("verification.energy_score", "verification", "energy_score", None),
    ("verification.mst_rank", "verification", "mst_rank", None),
    ("verification.verification_rank", "verification", "verification_rank", None),
    ("verification.pit_value", "verification", "pit_value", None),
    ("verification.reliability_table", "verification", "reliability_table", None),
    ("verification.VerificationReport.write", "verification", "VerificationReport.write",
     None),
]


class Tracer:
    """Installs timing wrappers and aggregates their records per cycle."""

    def __init__(self):
        self.error_type = importlib.import_module(f"{PACKAGE}.errors").PrecipError
        self.spans = []  # (span id, name, start, end, parent span id, operation id)
        self.cycles = []  # one {metric: amount} dict per traced cycle
        self.stats = defaultdict(float)
        self.missing = []
        self._stack = []  # [span id or None, name, time covered by child spans]
        self._saved = []
        self._next_span = 0
        self.op_id = None

    # -- installation -------------------------------------------------------

    def install(self):
        for entry in TARGETS:
            name, modname, path, hook = entry[:4]
            keep_spans = len(entry) < 5
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook, keep_spans))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def begin_cycle(self):
        self.stats = defaultdict(float)
        self.cycles.append(self.stats)

    def metric(self, name):
        """Median over traced cycles of one recorded or derived amount.

        Every cycle repeats the same work, so counts agree across cycles and
        are returned exactly; times vary and take the median.
        """
        values = []
        for stats in self.cycles:
            if name in DERIVED:
                num, den = DERIVED[name]
                values.append(stats[num] / stats[den] if stats[den] else 0.0)
            else:
                values.append(stats.get(name, 0))
        if all(v == values[0] for v in values):
            value = values[0]
        else:
            value = statistics.median(values)
        return int(value) if not name.endswith("_s") and float(value).is_integer() else value

    def _wrap(self, name, fn, hook, keep_spans):
        tracer = self
        layer = name.split(".", 1)[0]
        if name == "estimation.golden_section_max":
            fn = _counting_objective(self, fn)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = None
            if keep_spans:
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer.error_type:
                # Count an error once per layer it leaves.
                if parent is None or not parent[1].startswith(layer + "."):
                    tracer.stats[f"{layer}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                stats = tracer.stats
                stats[f"{name}.calls"] += 1
                stats[f"{name}.self_s"] += duration - frame[2]
                stats[f"{name}.total_s"] += duration
                if parent is not None:
                    parent[2] += duration
                if keep_spans:
                    tracer.spans.append((span_id, name, start, end,
                                         parent[0] if parent else None, tracer.op_id))
            if hook is not None:
                try:
                    work = hook(args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    work = {"trace.hook_errors": 1}
                for metric, amount in work.items():
                    stats[metric] += amount
            return result

        return wrapper


def _counting_objective(tracer, golden):
    def counted_golden(objective, *args, **kwargs):
        def counted(x):
            tracer.stats["estimation.golden_section_max.evals"] += 1
            return objective(x)

        return golden(counted, *args, **kwargs)

    return counted_golden
