"""Day-ahead benchmark pipeline and its report.

For every forecast day the roster models are trained strictly on data before
that day (dynamic fit on a trailing window, regressors on their selected
training length, persistence on the previous day) and score their prediction
of the day from its measured weather.  A trained model trains on
``preprocess.training_window`` through ``analysis.train_model`` and predicts
from ``feature_matrix`` rows of the day's weather through ``predict_model``,
as the studies do, so the day's measured power never reaches a prediction.
The dynamic fit takes the configured topology and datasheet, over the window
length ``RunConfig`` converts to whole seconds at parse time.  It predicts
from TRF's best iterate even when the fit hit its evaluation cap;
``trajectory.csv`` flags such a fit as not converged.  The sweep study
predicts from the last window fit.  Results are pooled into aggregate and
per-day metrics plus the enabled studies, all serialized deterministically.
"""

import hashlib
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np
import scipy

from . import analysis, baselines
from .exceptions import (ConfigError, ExtractionError,
                         InsufficientDataError, NumericalError, PvprofError)
from .iotools import dumps_json
from .preprocess import PreprocessConfig, training_window
from .sdm import ArrayTopology, SdmParamsRef
from .series import DAY, ForecastSeries, TelemetrySeries, WeatherSeries

SCHEMA_VERSION = 1
KNOWN_MODELS = ("pvpro", "smart_persistence", "naive_persistence",
                "nominal", "lr", "kr")
KNOWN_STUDIES = ("seasonal", "weather_cases", "exceedance", "sweep",
                 "training_length")


def _section(raw, name, default=None):
    """Top-level config section ``name``: ``default`` when it is absent,
    else the JSON object it must be."""
    if name not in raw:
        return default
    if not isinstance(raw[name], dict):
        raise ConfigError(f"configuration section {name!r} must be a JSON "
                          f"object, not {type(raw[name]).__name__}")
    return raw[name]


@dataclass
class RunConfig:
    """Parsed configuration of one run (see README for the JSON layout)."""

    telemetry_path: str | None
    mapping_path: str | None
    p_nominal: float
    topology: ArrayTopology
    datasheet: baselines.Datasheet | None
    preprocess: PreprocessConfig
    window_length: np.timedelta64
    update_period: np.timedelta64
    warm_start: bool
    models: tuple
    horizon: np.timedelta64
    grid_spec: baselines.GridSearchSpec
    studies: dict
    eval_start: np.datetime64 | None
    eval_end: np.datetime64 | None
    metrics_daylight_only: bool
    seed: int
    synth: dict | None
    raw: dict

    @classmethod
    def from_dict(cls, raw):
        try:
            return cls._parse(dict(raw))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc

    @classmethod
    def _parse(cls, raw):
        data = _section(raw, "data", {})
        system = _section(raw, "system")
        if system is None:
            raise ConfigError("configuration needs a 'system' section")
        topo_d = system.get("topology")
        if topo_d is None:
            raise ConfigError("system section needs 'topology'")
        topo = ArrayTopology(int(topo_d["cells_in_series"]),
                             int(topo_d["modules_per_string"]),
                             int(topo_d["strings_in_parallel"]))
        datasheet = None
        if system.get("datasheet") is not None:
            datasheet = baselines.Datasheet.from_dict(system["datasheet"])
        p_nominal = float(system.get("p_nominal_w") or 0.0)
        if p_nominal <= 0:
            if datasheet is None:
                raise ConfigError("p_nominal_w missing and no datasheet to "
                                  "derive it from")
            p_nominal = (datasheet.v_mp * topo.modules_per_string
                         * datasheet.i_mp * topo.strings_in_parallel)

        pp = _section(raw, "preprocess", {})
        preprocess = PreprocessConfig(
            g_min=float(pp.get("g_min", 50.0)),
            k_sigma=float(pp.get("k_sigma", 3.0)),
            clip_band=float(pp.get("clip_band", 0.005)),
            clip_run=int(pp.get("clip_run", 3)),
            p_ac_limit=(None if pp.get("p_ac_limit_w") is None
                        else float(pp["p_ac_limit_w"])))

        fit = _section(raw, "fit", {})
        for key in fit:
            if key not in ("window_days", "update_days", "warm_start"):
                raise ConfigError(f"unknown fit setting {key!r}")
        lengths = {}
        for key, default in (("window_days", 3), ("update_days", 1)):
            days = float(fit.get(key, default))
            if not 0 < days < np.inf:
                raise ConfigError(f"fit.{key} must be finite and > 0, "
                                  f"got {days}")
            # whole seconds; a length past int64 raises OverflowError
            lengths[key] = np.timedelta64(int(days * 86400), "s")
        models = tuple(raw.get("models", ("pvpro",)))
        if not models:
            raise ConfigError("model roster must be nonempty")
        unknown = [m for m in models if m not in KNOWN_MODELS]
        if unknown:
            raise ConfigError(f"unknown models in roster: {unknown}")
        if datasheet is None and ("nominal" in models or "pvpro" in models):
            raise ConfigError("the nominal and dynamic physical models need "
                              "a datasheet in the configuration")

        reg = _section(raw, "regressors", {})
        grid_spec = baselines.GridSearchSpec(
            lambda_grid=tuple(reg.get("lambda_grid",
                                      baselines.DEFAULT_LAMBDA_GRID)),
            gamma_grid=tuple(reg.get("gamma_grid",
                                     baselines.DEFAULT_GAMMA_GRID)),
            training_lengths_days=tuple(reg.get(
                "training_lengths_days", baselines.DEFAULT_TRAINING_LENGTHS)),
            holdout_days=float(reg.get("holdout_days", 1.0)))

        studies = {name: False for name in KNOWN_STUDIES}
        studies["exceedance"] = True
        for name, on in _section(raw, "studies", {}).items():
            if name not in KNOWN_STUDIES:
                raise ConfigError(f"unknown study {name!r}")
            studies[name] = bool(on)

        hours = raw.get("horizon_hours", 24)
        # persistence subtracts the horizon from a day in int64 seconds;
        # past 1e15 h (3.6e18 s) that would wrap silently
        if not (float(hours).is_integer() and 1 <= float(hours) <= 1e15):
            raise ConfigError(f"horizon_hours must be a whole number >= 1 "
                              f"(at most 1e15), got {hours!r}")

        ev = _section(raw, "evaluation", {})

        def _day(key):
            v = ev.get(key)
            return None if v is None else np.datetime64(v, "s")

        return cls(
            telemetry_path=data.get("telemetry"),
            mapping_path=data.get("mapping"),
            p_nominal=p_nominal, topology=topo, datasheet=datasheet,
            preprocess=preprocess,
            window_length=lengths["window_days"],
            update_period=lengths["update_days"],
            warm_start=bool(fit.get("warm_start", True)),
            models=models,
            horizon=np.timedelta64(int(float(hours)), "h"),
            grid_spec=grid_spec, studies=studies,
            eval_start=_day("start"), eval_end=_day("end"),
            metrics_daylight_only=bool(raw.get("metrics_daylight_only", True)),
            seed=int(raw.get("seed", 0)),
            synth=_section(raw, "synth"), raw=raw)

    def config_hash(self):
        return hashlib.sha256(dumps_json(self.raw).encode()).hexdigest()


@dataclass
class BenchmarkReport:
    """Aggregated benchmark outcome, serializable as one JSON document."""

    provenance: dict
    p_nominal: float
    g_min: float
    daily: dict
    aggregate: dict
    selection: dict
    studies: dict
    forecasts: list = field(default_factory=list)
    trajectory: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "provenance": self.provenance,
            "p_nominal_w": self.p_nominal,
            "g_min": self.g_min,
            "daily": self.daily,
            "aggregate": self.aggregate,
            "selection": self.selection,
            "studies": self.studies,
        }


def _study_to_json(result):
    """A study's groups: a ``MetricsReport``, a dict of them, or None each."""
    groups = {}
    for key, value in result.groups.items():
        k = str(key)
        if isinstance(value, analysis.MetricsReport):
            groups[k] = value.to_json_dict()
        elif isinstance(value, dict):
            groups[k] = {str(kk): vv.to_json_dict()
                         for kk, vv in value.items()}
        else:
            groups[k] = value
    out = {"study": result.study_id, "groups": groups}
    if result.cv_of_cases is not None:
        out["cv_of_cases"] = result.cv_of_cases
    if result.notes:
        out["notes"] = list(result.notes)
    return out


class _DayAheadRunner:
    """Per-model prediction of one forecast day from data before it.

    Trained models go through ``analysis.train_model``/``predict_model``; the
    runner adds the dynamic fit's warm start, the regressors' grid selection
    and persistence.  The datasheet extraction is the datasheet's own
    (``Datasheet.desoto_params``), so every reader shares one run of it.
    """

    def __init__(self, config: RunConfig, series: TelemetrySeries):
        self.cfg = config
        self.series = series
        self.warm_params: SdmParamsRef | None = None
        self.selection: dict = {}
        self.grid_errors: dict = {}

    def prepare(self, eval_start):
        cfg = self.cfg
        if "nominal" in cfg.models:
            # extract up front: an infeasible datasheet fails the run here
            # rather than skipping the nominal model day by day
            cfg.datasheet.desoto_params
        history = self.series.slice_time(self.series.timestamp[0], eval_start)
        for name, family in analysis.REGRESSOR_FAMILIES.items():
            if name not in cfg.models:
                continue
            try:
                if len(history) == 0:
                    raise InsufficientDataError("no history before evaluation")
                X = baselines.feature_matrix(history.timestamp, history.g_poa,
                                             history.t_module)
                self.selection[name] = baselines.grid_search(
                    cfg.grid_spec, family, history.timestamp, X,
                    history.power, cfg.p_nominal, g_min=cfg.preprocess.g_min)
            except (InsufficientDataError, NumericalError) as exc:
                self.grid_errors[name] = f"grid search failed: {exc}"

    def predict_day(self, name, day_start, weather: WeatherSeries):
        """Prediction array and the day's window fit (dynamic model only,
        else None) for one model/day; raises PvprofError to skip."""
        cfg = self.cfg
        g_min = cfg.preprocess.g_min
        if name in ("smart_persistence", "naive_persistence"):
            hist = self.series.slice_time(day_start - cfg.horizon, day_start)
            if len(hist) == 0:
                raise InsufficientDataError("no history one horizon back")
            if name == "smart_persistence":
                fc = baselines.smart_persistence(
                    (hist.timestamp, hist.power), (hist.timestamp, hist.g_poa),
                    (weather.timestamp, weather.g_poa),
                    horizon=cfg.horizon, g_min=g_min)
            else:
                fc = baselines.naive_persistence(
                    (hist.timestamp, hist.power), weather.timestamp,
                    horizon=cfg.horizon)
            return fc.p_pred, None
        if name == "pvpro":
            train = training_window(self.series, day_start,
                                    cfg.window_length, cfg.preprocess)
            fitted = analysis.train_model(
                name, train, topo=cfg.topology, datasheet=cfg.datasheet,
                init=self.warm_params)
            if cfg.warm_start and fitted.converged:
                self.warm_params = fitted.params
        elif name == "nominal":
            fitted = cfg.datasheet.desoto_params
        else:
            if name in self.grid_errors:
                raise InsufficientDataError(self.grid_errors[name])
            sel = self.selection[name]
            length = np.timedelta64(int(sel.best_length_days * 86400), "s")
            train = training_window(self.series, day_start, length,
                                    cfg.preprocess)
            fitted = analysis.train_model(
                name, train, topo=cfg.topology, datasheet=cfg.datasheet,
                hyperparams=sel.best_hyperparams)
        X = baselines.feature_matrix(weather.timestamp, weather.g_poa,
                                     weather.t_cell)
        pred = analysis.predict_model(fitted, X, topo=cfg.topology,
                                      datasheet=cfg.datasheet, g_min=g_min)
        return pred, (fitted if name == "pvpro" else None)


def run_benchmark(config: RunConfig, series: TelemetrySeries,
                  ground_truth=None) -> BenchmarkReport:
    """Execute the full day-ahead benchmark over the evaluation span."""
    series.validate()
    days = series.days()
    history_days = config.window_length / DAY
    if "lr" in config.models or "kr" in config.models:
        history_days = max(history_days,
                           min(config.grid_spec.training_lengths_days)
                           + config.grid_spec.holdout_days)
    first_possible = days[0] + np.timedelta64(int(np.ceil(history_days)), "D")
    eval_start = config.eval_start or first_possible.astype("datetime64[s]")
    eval_start = np.datetime64(eval_start, "s")
    eval_end = (np.datetime64(config.eval_end, "s") + DAY
                if config.eval_end is not None
                else (days[-1].astype("datetime64[s]") + DAY))
    eval_days = [d for d in days
                 if eval_start <= d.astype("datetime64[s]") < eval_end]
    if not eval_days:
        raise InsufficientDataError("no forecast days in the evaluation span")

    runner = _DayAheadRunner(config, series)
    runner.prepare(eval_start)

    daily = {name: [] for name in config.models}
    pooled = {name: {"ts": [], "pred": [], "meas": [], "g": []}
              for name in config.models}
    forecasts = []
    trajectory = []
    for day in eval_days:
        day_start = day.astype("datetime64[s]")
        day_end = day_start + DAY
        test = series.slice_time(day_start, day_end)
        weather = WeatherSeries.from_telemetry(test)
        day_label = str(day)
        for name in config.models:
            try:
                pred, fit_result = runner.predict_day(name, day_start,
                                                      weather)
            except PvprofError as exc:
                daily[name].append({"day": day_label, "skipped": str(exc)})
                continue
            if fit_result is not None:
                trajectory.append(fit_result)
            try:
                report = analysis.compute_metrics(
                    pred, test.power, config.p_nominal,
                    daylight_only=config.metrics_daylight_only,
                    g_poa=test.g_poa, g_min=config.preprocess.g_min)
            except InsufficientDataError as exc:
                daily[name].append({"day": day_label, "skipped": str(exc)})
                continue
            daily[name].append({"day": day_label, **report.to_json_dict()})
            pooled[name]["ts"].append(test.timestamp)
            pooled[name]["pred"].append(pred)
            pooled[name]["meas"].append(test.power)
            pooled[name]["g"].append(test.g_poa)
            forecasts.append(ForecastSeries(test.timestamp, pred, model=name,
                                            p_meas=test.power))

    aggregate = {}
    agg_inputs = {}
    for name in config.models:
        if not pooled[name]["ts"]:
            aggregate[name] = None
            continue
        ts = np.concatenate(pooled[name]["ts"])
        pred = np.concatenate(pooled[name]["pred"])
        meas = np.concatenate(pooled[name]["meas"])
        g = np.concatenate(pooled[name]["g"])
        agg_inputs[name] = (ts, pred, meas, g)
        report = analysis.compute_metrics(
            pred, meas, config.p_nominal,
            daylight_only=config.metrics_daylight_only, g_poa=g,
            g_min=config.preprocess.g_min)
        aggregate[name] = report.to_json_dict(with_series=True)

    studies = _run_studies(config, series, aggregate, agg_inputs,
                           trajectory, ground_truth)

    provenance = {
        "config_sha256": config.config_hash(),
        "seed": config.seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "versions": {"pvprof": "0.1.0", "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": platform.python_version()},
    }
    selection = {name: {"best_hyperparams": sel.best_hyperparams,
                        "best_length_days": sel.best_length_days,
                        "best_nmae": sel.best_nmae,
                        "table": sel.table}
                 for name, sel in runner.selection.items()}
    return BenchmarkReport(
        provenance=provenance, p_nominal=config.p_nominal,
        g_min=config.preprocess.g_min, daily=daily, aggregate=aggregate,
        selection=selection, studies=studies, forecasts=forecasts,
        trajectory=trajectory)


def _run_studies(config, series, aggregate, agg_inputs, trajectory,
                 ground_truth):
    studies = {}
    trainable = [m for m in config.models if m in analysis.TRAINABLE_MODELS]
    if config.studies.get("exceedance"):
        studies["exceedance"] = {name: agg["exceedance"]
                                 for name, agg in aggregate.items()
                                 if agg is not None}
    if config.studies.get("seasonal"):
        studies["seasonal"] = {
            name: _study_to_json(analysis.seasonal_partition(
                ts, pred, meas, config.p_nominal, g_poa=g,
                daylight_only=config.metrics_daylight_only,
                g_min=config.preprocess.g_min))
            for name, (ts, pred, meas, g) in agg_inputs.items()}
    if config.studies.get("weather_cases"):
        if ground_truth is not None:
            day0 = np.datetime64(ground_truth.start_day, "D")
            labels = {day0 + np.timedelta64(k, "D"): lab
                      for k, lab in enumerate(ground_truth.day_labels)}
        else:
            labels = analysis.classify_days(series,
                                            g_min=config.preprocess.g_min)
        try:
            result = analysis.weather_case_study(
                series, labels, trainable, topo=config.topology,
                datasheet=config.datasheet, p_nominal=config.p_nominal,
                preprocess=config.preprocess, g_min=config.preprocess.g_min)
            studies["weather_cases"] = _study_to_json(result)
        except (InsufficientDataError, NumericalError) as exc:
            studies["weather_cases"] = {"error": str(exc)}
    if config.studies.get("sweep") and config.datasheet is not None:
        try:
            reference = config.datasheet.desoto_params
        except ExtractionError as exc:
            # no reference curve: record the failure as the other studies do
            studies["sweep"] = {"error": str(exc)}
        else:
            model = trajectory[-1] if trajectory else reference
            sweep = {}
            for feature, rng in (("g_poa", (0.0, 1000.0)),
                                 ("t_module", (0.0, 80.0)),
                                 ("hod", (0.0, 1.0))):
                result = analysis.interpretability_sweep(
                    model, feature, rng, topo=config.topology,
                    datasheet=config.datasheet, reference_params=reference)
                sweep[feature] = {key: result.groups[key]
                                  for key in ("grid", "curves")}
            studies["sweep"] = sweep
    if config.studies.get("training_length") and not trainable:
        studies["training_length"] = {
            "error": "no trainable model in the roster"}
    elif config.studies.get("training_length"):
        try:
            result = analysis.training_length_sweep(
                "pvpro" if "pvpro" in trainable else trainable[0],
                series, config.grid_spec.training_lengths_days,
                topo=config.topology, datasheet=config.datasheet,
                p_nominal=config.p_nominal,
                preprocess=config.preprocess, g_min=config.preprocess.g_min)
            studies["training_length"] = _study_to_json(result)
        except (InsufficientDataError, NumericalError) as exc:
            studies["training_length"] = {"error": str(exc)}
    return studies
