"""Outside-in span tracer for the pvprof layers.

The tracer wraps named public functions of the ``pvprof`` modules from the
outside: every module namespace that binds a target (its defining module and
any ``from .x import f`` binding elsewhere) is rebound to one wrapper, so the
program source is never edited.  Spans are kept in memory and turned into
per-layer metrics after the run.
"""

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# module -> public functions traced in it.  Each is a layer boundary that a
# per-layer metric below reads; a rename in the program must be mirrored here.
TARGETS = {
    "sdm": ("translate_arrays", "open_circuit_diode_voltage_arrays",
            "mpp_arrays", "simulate_array_mpp_arrays"),
    "fitting": ("fit_window", "initial_guess", "simulate_power"),
    "preprocess": ("apply_quality_pipeline", "filter_clipping"),
    "baselines": ("fit_desoto_from_datasheet", "grid_search",
                  "train_regressor", "predict_regressor"),
    "analysis": ("weather_case_study", "training_length_sweep",
                 "seasonal_partition", "interpretability_sweep",
                 "compute_metrics"),
    "benchmark": ("run_benchmark",),
    "iotools": ("read_telemetry_csv", "write_json", "write_forecast_csv"),
    "synth": ("generate_dataset",),
}

ROOT = "operation"


class TracerError(RuntimeError):
    """A traced target is missing or a layer recorded no work where it must."""


def _points(args, kwargs, result):
    return {"points": int(np.size(result[2]))}


def _rows(args, kwargs, result):
    features = args[1] if len(args) > 1 else kwargs["features"]
    return {"rows": int(np.shape(features)[0])}


def _quality(args, kwargs, result):
    return {"records_in": int(result.retained.size),
            "retained": int(np.count_nonzero(result.retained))}


def _fit(args, kwargs, result):
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged),
            "final_loss": float(result.final_loss)}


def _grid(args, kwargs, result):
    return {"cells_valid": sum(1 for row in result.table if row["valid"])}


# counters read from a call's arguments or result, outside the timed span
ATTRIBUTES = {
    "sdm.mpp_arrays": _points,
    "baselines.train_regressor": _rows,
    "preprocess.apply_quality_pipeline": _quality,
    "fitting.fit_window": _fit,
    "baselines.grid_search": _grid,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def resolve_targets():
    """Map span name -> original function; raise if any target is gone."""
    import pvprof.cli  # noqa: F401  (loads every module the CLI runs)
    originals = {}
    missing = []
    for mod_name, funcs in TARGETS.items():
        module = sys.modules.get(f"pvprof.{mod_name}")
        for func in funcs:
            fn = getattr(module, func, None) if module else None
            if not callable(fn):
                missing.append(f"pvprof.{mod_name}.{func}")
            else:
                originals[f"{mod_name}.{func}"] = fn
    if missing:
        raise TracerError("traced targets no longer exist: "
                          + ", ".join(missing))
    return originals


class Tracer:
    """Records nested spans of the targets while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None
        self._rebound = []

    def install(self):
        """Rebind every ``pvprof.*`` name bound to a target to its wrapper."""
        originals = resolve_targets()
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pvprof" and not mod_name.startswith("pvprof."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        attributes = ATTRIBUTES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self._op)
            spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if attributes is not None:
                span.attrs = attributes(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def run(self, op_id, func, *args):
        """Call ``func`` under a root span tagged ``op_id``."""
        self._op = op_id
        root = Span(ROOT, 0.0, 0.0, -1, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(root)
        root.start = perf_counter()
        try:
            return func(*args)
        except BaseException:
            root.error = True
            raise
        finally:
            root.end = perf_counter()
            self._stack.pop()
            self._op = None

    def spans_of(self, op_id):
        """Spans of one operation with self time, as (span, self_s, index)."""
        child_time = {}
        picked = [(i, s) for i, s in enumerate(self.spans) if s.op == op_id]
        for _, s in picked:
            if s.parent >= 0:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        return [(s, s.duration - child_time.get(i, 0.0), i) for i, s in picked]


def _median(values, default=0.0):
    return float(np.median(values)) if len(values) else default


# per-layer metric -> unit; counts first, then times, then ratios
LAYER_METRICS = {
    "sdm.mpp_arrays.calls": "count",
    "sdm.mpp_arrays.points": "count",
    "sdm.mpp_arrays.self_s": "s",
    "sdm.mpp_arrays.ns_per_point": "ns",
    "sdm.mpp_arrays.self_share": "fraction",
    "sdm.open_circuit_diode_voltage_arrays.self_s": "s",
    "sdm.translate_arrays.self_s": "s",
    "sdm.self_share": "fraction",
    "fitting.fit_window.calls": "count",
    "fitting.fit_window.iterations": "count",
    "fitting.fit_window.loss_evals": "count",
    "fitting.fit_window.loss_evals_per_fit": "count",
    "fitting.fit_window.self_s": "s",
    "fitting.fit_window.s_per_call": "s",
    "fitting.fit_window.converged_share": "fraction",
    "fitting.fit_window.failed": "count",
    "fitting.fit_window.final_loss_median": "loss",
    "fitting.loss_eval.ms_per_call": "ms",
    "fitting.initial_guess.calls": "count",
    "fitting.simulate_power.self_s": "s",
    "preprocess.apply_quality_pipeline.calls": "count",
    "preprocess.apply_quality_pipeline.total_s": "s",
    "preprocess.apply_quality_pipeline.records_in": "count",
    "preprocess.apply_quality_pipeline.retained_share": "fraction",
    "preprocess.filter_clipping.self_s": "s",
    "baselines.fit_desoto_from_datasheet.calls": "count",
    "baselines.fit_desoto_from_datasheet.total_s": "s",
    "baselines.grid_search.calls": "count",
    "baselines.grid_search.total_s": "s",
    "baselines.grid_search.cells_valid": "count",
    "baselines.train_regressor.calls": "count",
    "baselines.train_regressor.rows": "count",
    "baselines.train_regressor.max_rows": "count",
    "baselines.train_regressor.self_s": "s",
    "baselines.train_regressor.self_share": "fraction",
    "baselines.predict_regressor.self_s": "s",
    "analysis.weather_case_study.total_s": "s",
    "analysis.training_length_sweep.total_s": "s",
    "analysis.seasonal_partition.total_s": "s",
    "analysis.interpretability_sweep.total_s": "s",
    "analysis.compute_metrics.calls": "count",
    "analysis.compute_metrics.self_s": "s",
    "benchmark.run_benchmark.total_s": "s",
    "benchmark.run_benchmark.self_s": "s",
    "iotools.read_telemetry_csv.total_s": "s",
    "iotools.write_json.total_s": "s",
    "iotools.write_forecast_csv.total_s": "s",
    "synth.generate_dataset.total_s": "s",
    "trace.op_s": "s",
    "trace.coverage_share": "fraction",
    "trace.overhead_s": "s",
}

# per-layer metrics that must repeat exactly between traced operations
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items()
                      if unit == "count") + (
    "preprocess.apply_quality_pipeline.retained_share",
    "fitting.fit_window.converged_share",
    "fitting.fit_window.final_loss_median")


def operation_metrics(tracer: Tracer, op_id):
    """Per-layer metrics of one traced operation (a pvprof CLI call)."""
    rows = tracer.spans_of(op_id)
    calls, total, self_s = {}, {}, {}
    by_name = {}
    for span, own, _ in rows:
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        by_name.setdefault(span.name, []).append(span)
    op_s = sum(s.duration for s, _, _ in rows if s.name == ROOT)
    root_self = sum(own for s, own, _ in rows if s.name == ROOT)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    fits = by_name.get("fitting.fit_window", [])
    fit_idx = {i for s, _, i in rows if s.name == "fitting.fit_window"}
    loss_spans = [s for s, _, _ in rows
                  if s.name == "sdm.simulate_array_mpp_arrays"
                  and s.parent in fit_idx]
    n_fits = len(fits)
    ok_fits = [s for s in fits if not s.error]
    points = attr_sum("sdm.mpp_arrays", "points")
    records_in = attr_sum("preprocess.apply_quality_pipeline", "records_in")
    rows_trained = [s.attrs.get("rows", 0)
                    for s in by_name.get("baselines.train_regressor", ())]
    sdm_self = sum(v for k, v in self_s.items() if k.startswith("sdm."))

    def share(x):
        return x / op_s if op_s > 0 else 0.0

    m = {
        "sdm.mpp_arrays.calls": calls.get("sdm.mpp_arrays", 0),
        "sdm.mpp_arrays.points": points,
        "sdm.mpp_arrays.self_s": self_s.get("sdm.mpp_arrays", 0.0),
        "sdm.mpp_arrays.ns_per_point": (
            self_s.get("sdm.mpp_arrays", 0.0) / points * 1e9 if points else 0.0),
        "sdm.mpp_arrays.self_share": share(self_s.get("sdm.mpp_arrays", 0.0)),
        "sdm.open_circuit_diode_voltage_arrays.self_s":
            self_s.get("sdm.open_circuit_diode_voltage_arrays", 0.0),
        "sdm.translate_arrays.self_s": self_s.get("sdm.translate_arrays", 0.0),
        "sdm.self_share": share(sdm_self),
        "fitting.fit_window.calls": n_fits,
        "fitting.fit_window.iterations": attr_sum("fitting.fit_window",
                                                  "iterations"),
        "fitting.fit_window.loss_evals": len(loss_spans),
        "fitting.fit_window.loss_evals_per_fit": (
            len(loss_spans) / n_fits if n_fits else 0.0),
        "fitting.fit_window.self_s": self_s.get("fitting.fit_window", 0.0),
        "fitting.fit_window.s_per_call": (
            total.get("fitting.fit_window", 0.0) / n_fits if n_fits else 0.0),
        "fitting.fit_window.converged_share": (
            sum(s.attrs["converged"] for s in ok_fits) / n_fits
            if n_fits else 0.0),
        "fitting.fit_window.failed": n_fits - len(ok_fits),
        "fitting.fit_window.final_loss_median": _median(
            [s.attrs["final_loss"] for s in ok_fits]),
        "fitting.loss_eval.ms_per_call": (
            _median([s.duration for s in loss_spans]) * 1e3),
        "fitting.initial_guess.calls": calls.get("fitting.initial_guess", 0),
        "fitting.simulate_power.self_s": self_s.get("fitting.simulate_power",
                                                    0.0),
        "preprocess.apply_quality_pipeline.calls":
            calls.get("preprocess.apply_quality_pipeline", 0),
        "preprocess.apply_quality_pipeline.total_s":
            total.get("preprocess.apply_quality_pipeline", 0.0),
        "preprocess.apply_quality_pipeline.records_in": records_in,
        "preprocess.apply_quality_pipeline.retained_share": (
            attr_sum("preprocess.apply_quality_pipeline", "retained")
            / records_in if records_in else 0.0),
        "preprocess.filter_clipping.self_s":
            self_s.get("preprocess.filter_clipping", 0.0),
        "baselines.fit_desoto_from_datasheet.calls":
            calls.get("baselines.fit_desoto_from_datasheet", 0),
        "baselines.fit_desoto_from_datasheet.total_s":
            total.get("baselines.fit_desoto_from_datasheet", 0.0),
        "baselines.grid_search.calls": calls.get("baselines.grid_search", 0),
        "baselines.grid_search.total_s": total.get("baselines.grid_search",
                                                   0.0),
        "baselines.grid_search.cells_valid": attr_sum("baselines.grid_search",
                                                      "cells_valid"),
        "baselines.train_regressor.calls":
            calls.get("baselines.train_regressor", 0),
        "baselines.train_regressor.rows": sum(rows_trained),
        "baselines.train_regressor.max_rows": max(rows_trained, default=0),
        "baselines.train_regressor.self_s":
            self_s.get("baselines.train_regressor", 0.0),
        "baselines.train_regressor.self_share":
            share(self_s.get("baselines.train_regressor", 0.0)),
        "baselines.predict_regressor.self_s":
            self_s.get("baselines.predict_regressor", 0.0),
        "analysis.weather_case_study.total_s":
            total.get("analysis.weather_case_study", 0.0),
        "analysis.training_length_sweep.total_s":
            total.get("analysis.training_length_sweep", 0.0),
        "analysis.seasonal_partition.total_s":
            total.get("analysis.seasonal_partition", 0.0),
        "analysis.interpretability_sweep.total_s":
            total.get("analysis.interpretability_sweep", 0.0),
        "analysis.compute_metrics.calls": calls.get("analysis.compute_metrics",
                                                    0),
        "analysis.compute_metrics.self_s":
            self_s.get("analysis.compute_metrics", 0.0),
        "benchmark.run_benchmark.total_s": total.get("benchmark.run_benchmark",
                                                     0.0),
        "benchmark.run_benchmark.self_s": self_s.get("benchmark.run_benchmark",
                                                     0.0),
        "iotools.read_telemetry_csv.total_s":
            total.get("iotools.read_telemetry_csv", 0.0),
        "iotools.write_json.total_s": total.get("iotools.write_json", 0.0),
        "iotools.write_forecast_csv.total_s":
            total.get("iotools.write_forecast_csv", 0.0),
        "trace.op_s": op_s,
        "trace.coverage_share": share(op_s - root_self),
    }
    return m, calls
