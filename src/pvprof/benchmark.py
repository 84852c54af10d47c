"""Day-ahead benchmark pipeline and its report.

For every forecast day the roster models are trained strictly on data before
that day (dynamic fit on a trailing window, regressors on their selected
training length, persistence on the previous day) and score their prediction
of the day from its measured weather.  A regressor trains on
``preprocess.training_window`` through ``analysis.train_model``.  The
dynamic model's days are the windows of one ``fitting.rolling_fit`` run
ending at the forecast-day starts, over the configured topology, datasheet
and window length, so ``trajectory.csv`` holds ``pvprof fit``'s rows and
labels, failed windows included (their day is skipped with the window's
error).  A fit that hit its evaluation cap still predicts, from the
solver's best point, and ``trajectory.csv`` flags it as not converged.
Every model predicts a day as a power array from the day's telemetry
slice: a trained model from ``feature_matrix`` rows of its irradiance and
module temperature through ``predict_model``, as the studies do, and
persistence from its timestamps and irradiance, so the day's measured
power never reaches a prediction.  The sweep study predicts from the last window
fit that did not fail.  Results are pooled into aggregate and per-day
metrics plus the enabled studies, all serialized deterministically.  A
(model, day) cell whose metrics cannot be taken, for want of daylight
samples or for a non-finite prediction or measurement, is skipped with
that reason and left out of the pool.

A run slices each distinct training window once.  One
``preprocess.TrainingWindows`` table, made for the run, masks every
``[end - length, end)`` window the first time a reader asks for it:
``rolling_fit``'s days, the regressors' training slices and the
training-length windows read their slices from it, so pvpro, ``lr`` and
``kr`` share the mask of an equal window.  The weather-case pools keep
their own whole-series mask (see ``analysis.weather_pools``), and their
days are labelled from each day's own power variability
(``analysis.classify_days``), so a run reads nothing but its
configuration and its telemetry.

Every dynamic-model fit of a run goes through one
``fitting.SolvedWindows``, made for that run.  The weather-case pools
(``analysis.weather_pools``) and the training-length windows
(``analysis.training_length_windows``) are sliced once, before any model
trains, and a slicing error is its study's reported error.  Every pvpro
fit starts from the datasheet's initial guess, so the days' windows, the
pools and the training-length windows are solved in one batch, each
distinct window once, and the days and the studies read their fits from
the record.

Each trained model predicts all its days in one ``predict_model`` call:
pvpro's and nominal's days are one stacked MPP solve each, with one
parameter row per record.  A day whose model could not be trained is left
out of the stack and skipped with its error, and a stacked solve that
fails is repeated day by day, so a failure skips only its own
(model, day) cell.  ``forecasts.csv`` stays day-major.
"""

import functools
import hashlib
import platform
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np
import scipy

from . import analysis, baselines, fitting, synth
from .exceptions import (ConfigError, ExtractionError,
                         InsufficientDataError, NumericalError, PvprofError,
                         finite_number, whole_number)
from .iotools import dumps_json
from .preprocess import PreprocessConfig, TrainingWindows
from .sdm import ArrayTopology, SdmParamsRef
from .series import DAY, ForecastSeries, TelemetrySeries

SCHEMA_VERSION = 1
KNOWN_MODELS = ("pvpro", "smart_persistence", "naive_persistence",
                "nominal", "lr", "kr")
KNOWN_STUDIES = ("seasonal", "weather_cases", "exceedance", "sweep",
                 "training_length")


# the settings each part of a configuration may hold; a misspelled key is
# refused rather than silently left at its default.  A section that
# configures one type (preprocess, regressors, system.topology,
# system.datasheet, synth.true_params) holds its fields, checked by
# ``_build``; synth holds ``synth.WeatherProfile``'s and ``_SYNTH_KEYS``.
_TOP_LEVEL_KEYS = ("data", "system", "preprocess", "fit", "models",
                   "regressors", "studies", "horizon_hours", "evaluation",
                   "metrics_daylight_only", "seed", "synth")
_SECTION_KEYS = {
    "data": ("telemetry", "mapping"),
    # climate_zone is an annotation, with no effect
    "system": ("topology", "datasheet", "p_nominal_w", "climate_zone"),
    "fit": ("window_days", "update_days", "warm_start"),
    "studies": KNOWN_STUDIES,
    "evaluation": ("start", "end"),
}
_SYNTH_KEYS = ("true_params", "scenario", "noise_v", "noise_i", "alpha_isc")
# the one key that differs from the field it sets
_FIELD_KEYS = {"p_ac_limit": "p_ac_limit_w"}


def _check_keys(settings, known, what):
    """Raise ``ConfigError`` naming the first key of ``settings`` that is
    not in ``known``."""
    for key in settings:
        if key not in known:
            raise ConfigError(f"unknown {what} {key!r}")


def _build(cls, settings, what, read=lambda value, name: value, **given):
    """The dataclass ``cls`` made from the JSON object ``settings``, whose
    keys are its fields (see ``_FIELD_KEYS``) but those ``given``.  An
    unknown key, or a missing one without a default, is refused and named;
    ``read(value, name)`` reads each value, and ``cls`` checks them."""
    if not isinstance(settings, dict):
        raise ConfigError(f"{what} must be a JSON object, not "
                          f"{type(settings).__name__}")
    keys = {_FIELD_KEYS.get(f.name, f.name): f for f in fields(cls)
            if f.name not in given}
    _check_keys(settings, keys, f"{what} setting")
    for key, f in keys.items():
        if key not in settings and f.default is MISSING:
            raise ConfigError(f"{what} needs {key!r}")
    return cls(**given, **{keys[key].name: read(value, f"{what}.{key}")
                           for key, value in settings.items()})


def _synth_arguments(raw, seed, datasheet):
    """``synth.generate_dataset``'s arguments but the topology, built from
    the ``synth`` section (None without one) at the run's ``seed``."""
    section = _section(raw, "synth")
    if section is None:
        return None
    if "true_params" not in section:
        raise ConfigError("synth needs 'true_params'")
    weather = {k: v for k, v in section.items() if k not in _SYNTH_KEYS}
    arguments = dict(
        true_params=_build(SdmParamsRef, section["true_params"],
                           "synth.true_params", read=finite_number),
        profile=_build(synth.WeatherProfile, weather, "synth", seed=seed),
        scenario=synth.DegradationScenario(section.get("scenario", {})),
        alpha_isc=finite_number(section.get("alpha_isc", getattr(
            datasheet, "alpha_isc", 0.0)), "synth.alpha_isc"))
    for key in ("noise_v", "noise_i"):   # generate_dataset's when left out
        if key in section:
            arguments[key] = finite_number(section[key], f"synth.{key}")
            if arguments[key] < 0:
                raise ConfigError(f"synth.{key} must be finite and >= 0, "
                                  f"got {arguments[key]!r}")
    return arguments


def _section(raw, name, default=None):
    """Top-level config section ``name``: ``default`` when it is absent,
    else the JSON object it must be.  Its keys are checked here if it is in
    ``_SECTION_KEYS``, else by ``_build`` (``synth`` included)."""
    if name not in raw:
        return default
    if not isinstance(raw[name], dict):
        raise ConfigError(f"configuration section {name!r} must be a JSON "
                          f"object, not {type(raw[name]).__name__}")
    if name in _SECTION_KEYS:
        _check_keys(raw[name], _SECTION_KEYS[name],
                    "study" if name == "studies" else f"{name} setting")
    return raw[name]


def _flag(value, name):
    """A JSON boolean setting; any other value is refused, so that the
    string ``"false"`` does not read as true."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


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
    models: tuple
    horizon: np.timedelta64
    grid_spec: baselines.GridSearchSpec
    studies: dict
    eval_start: np.datetime64 | None
    eval_end: np.datetime64 | None
    metrics_daylight_only: bool
    seed: int
    synth: dict | None   # see _synth_arguments
    raw: dict

    @classmethod
    def from_dict(cls, raw):
        try:
            return cls._parse(dict(raw))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc

    @classmethod
    def _parse(cls, raw):
        _check_keys(raw, _TOP_LEVEL_KEYS, "top-level setting")
        data = _section(raw, "data", {})
        for key in ("telemetry", "mapping"):
            if data.get(key) is not None and not isinstance(data[key], str):
                raise ConfigError(f"data.{key} must be a file path, "
                                  f"got {data[key]!r}")
        system = _section(raw, "system")
        if system is None:
            raise ConfigError("configuration needs a 'system' section")
        if system.get("topology") is None:
            raise ConfigError("system section needs 'topology'")
        topo = _build(ArrayTopology, system["topology"], "system.topology")
        datasheet = None
        if system.get("datasheet") is not None:
            datasheet = _build(baselines.Datasheet, system["datasheet"],
                               "system.datasheet")
        if system.get("p_nominal_w") is None:
            if datasheet is None:
                raise ConfigError("p_nominal_w missing and no datasheet to "
                                  "derive it from")
            p_nominal = (datasheet.v_mp * topo.modules_per_string
                         * datasheet.i_mp * topo.strings_in_parallel)
        else:
            p_nominal = finite_number(system["p_nominal_w"],
                                      "system.p_nominal_w")
        # an infinite nameplate scores every model 0, a NaN one skips
        # every cell
        if not 0 < p_nominal < np.inf:
            raise ConfigError(f"system.p_nominal_w must be finite and > 0, "
                              f"got {p_nominal!r}")
        preprocess = _build(PreprocessConfig, _section(raw, "preprocess", {}),
                            "preprocess")

        fit = _section(raw, "fit", {})
        lengths = {}
        for key, default in (("window_days", 3), ("update_days", 1)):
            days = finite_number(fit.get(key, default), f"fit.{key}")
            if days <= 0:
                raise ConfigError(f"fit.{key} must be finite and > 0, "
                                  f"got {days}")
            # whole seconds; a length past int64 raises OverflowError
            lengths[key] = np.timedelta64(int(days * 86400), "s")
        # accepted for old configurations; every window fit starts from
        # the datasheet
        _flag(fit.get("warm_start", True), "fit.warm_start")
        models = raw.get("models", ("pvpro",))
        if not (isinstance(models, (list, tuple)) and models):
            raise ConfigError(f"models must be a nonempty list, got "
                              f"{models!r}")
        models = tuple(models)
        unknown = [m for m in models if m not in KNOWN_MODELS]
        if unknown:
            raise ConfigError(f"unknown models in roster: {unknown}")
        # a repeated model would be run, and written, once per entry
        duplicates = sorted({m for m in models if models.count(m) > 1})
        if duplicates:
            raise ConfigError(f"models repeated in roster: {duplicates}")
        if datasheet is None and ("nominal" in models or "pvpro" in models):
            raise ConfigError("the nominal and dynamic physical models need "
                              "a datasheet in the configuration")

        grid_spec = _build(baselines.GridSearchSpec,
                           _section(raw, "regressors", {}), "regressors")

        studies = {name: False for name in KNOWN_STUDIES}
        studies["exceedance"] = True
        for name, on in _section(raw, "studies", {}).items():
            studies[name] = _flag(on, f"studies.{name}")

        # persistence subtracts the horizon from a day in int64 seconds;
        # past 1e15 h (3.6e18 s) that would wrap silently
        hours = whole_number(raw.get("horizon_hours", 24), "horizon_hours",
                             high=1e15)

        ev = _section(raw, "evaluation", {})

        def _day(key):
            # numpy would read a number as seconds since 1970
            v = ev.get(key)
            day = v.removesuffix("T00:00:00") if isinstance(v, str) else v
            if v is not None and not synth._is_date(day):
                raise ConfigError(f"evaluation.{key} must be a day "
                                  f"(YYYY-MM-DD), got {v!r}")
            return None if v is None else np.datetime64(day, "s")

        seed = whole_number(raw.get("seed", 0), "seed", low=0)
        return cls(
            telemetry_path=data.get("telemetry"),
            mapping_path=data.get("mapping"),
            p_nominal=p_nominal, topology=topo, datasheet=datasheet,
            preprocess=preprocess,
            window_length=lengths["window_days"],
            update_period=lengths["update_days"],
            models=models,
            horizon=np.timedelta64(hours, "h"),
            grid_spec=grid_spec, studies=studies,
            eval_start=_day("start"), eval_end=_day("end"),
            metrics_daylight_only=_flag(raw.get("metrics_daylight_only", True),
                                        "metrics_daylight_only"),
            seed=seed, synth=_synth_arguments(raw, seed, datasheet), raw=raw)

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


def _outcome(run, *args, **kwargs):
    """``run(*args, **kwargs)``, or the ``PvprofError`` that it raises.

    A study's slicing goes through it too.  ``run_benchmark`` validates the
    series first and hands the slicers its own ``TrainingWindows``, so
    there they raise only ``InsufficientDataError``."""
    try:
        return run(*args, **kwargs)
    except PvprofError as exc:
        return exc


class _DayAheadRunner:
    """Per-model predictions of the forecast days, each from data before it.

    Trained models go through ``analysis.train_model``/``predict_model``;
    the dynamic model's days are the windows of one ``fitting.rolling_fit``
    run, and the runner adds the regressors' grid selection and
    persistence.  Every training slice, pvpro's and the regressors', is
    read from ``windows``, the run's ``preprocess.TrainingWindows``.  Each
    trained model predicts its days in one ``predict_model`` call, a
    stacked solve for pvpro and nominal (see the module docstring).  The
    datasheet extraction is the datasheet's own
    (``Datasheet.desoto_params``), so every reader shares one run of it.
    ``solved`` is the run's ``fitting.SolvedWindows``.
    """

    def __init__(self, config: RunConfig, series: TelemetrySeries,
                 windows: TrainingWindows):
        self.cfg = config
        self.series = series
        self.windows = windows
        # each forecast-day start's window fit of the dynamic model, in order
        self.day_fits: dict = {}
        self.solved = fitting.SolvedWindows(config.topology, config.datasheet)
        self.selection: dict = {}
        self.grid_errors: dict = {}

    def prepare(self, eval_start, day_starts, study_windows):
        """Select the regressors and fit the dynamic model's days; the
        studies' pvpro training windows, ``study_windows``, are solved in
        one batch with the days' windows (see the module docstring)."""
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
        if "pvpro" in cfg.models:
            self.solved.plan(study_windows)
            self.day_fits = dict(zip(day_starts, fitting.rolling_fit(
                self.series, cfg.topology, cfg.window_length, day_starts,
                cfg.datasheet, cfg.preprocess, self.solved, self.windows)))

    def predict(self, name, day_starts, tests):
        """Model ``name``'s prediction array for each day, from the day's
        telemetry slice in ``tests``, or the ``PvprofError`` that skips
        the day."""
        if name in ("smart_persistence", "naive_persistence"):
            return [_outcome(self._persist, name, day_start, test)
                    for day_start, test in zip(day_starts, tests)]
        outcomes = [_outcome(self._trained, name, day_start)
                    for day_start in day_starts]
        days = [k for k, fitted in enumerate(outcomes)
                if not isinstance(fitted, PvprofError)]
        models = [outcomes[k] for k in days]
        features = [baselines.feature_matrix(
            tests[k].timestamp, tests[k].g_poa, tests[k].t_module)
            for k in days]
        predict = functools.partial(
            analysis.predict_model, topo=self.cfg.topology,
            datasheet=self.cfg.datasheet, g_min=self.cfg.preprocess.g_min)
        try:
            preds = predict(models, features)
        except PvprofError:
            # a stack that fails is solved day by day: each day gets its
            # own outcome, as it would alone
            preds = [_outcome(predict, model, X)
                     for model, X in zip(models, features)]
        for k, pred in zip(days, preds):
            outcomes[k] = pred
        return outcomes

    def _persist(self, name, day_start, test: TelemetrySeries):
        """A persistence model's prediction array for the day ``test``."""
        cfg = self.cfg
        hist = self.series.slice_time(day_start - cfg.horizon, day_start)
        if len(hist) == 0:
            raise InsufficientDataError("no history one horizon back")
        if name == "smart_persistence":
            return baselines.smart_persistence(
                (hist.timestamp, hist.power), (hist.timestamp, hist.g_poa),
                (test.timestamp, test.g_poa),
                horizon=cfg.horizon, g_min=cfg.preprocess.g_min)
        return baselines.naive_persistence(
            (hist.timestamp, hist.power), test.timestamp, horizon=cfg.horizon)

    def _trained(self, name, day_start):
        """A trained model's parameters or regressor for one day; raises
        ``PvprofError`` to skip the day."""
        cfg = self.cfg
        if name == "pvpro":
            fitted = self.day_fits[day_start]
            if fitted.error is not None:
                raise PvprofError(fitted.error)
            return fitted
        if name == "nominal":
            return cfg.datasheet.desoto_params
        if name in self.grid_errors:
            raise InsufficientDataError(self.grid_errors[name])
        sel = self.selection[name]
        length = np.timedelta64(int(sel.best_length_days * 86400), "s")
        fitted, = analysis.train_model(
            name, [self.windows.get(day_start, length)], topo=cfg.topology,
            datasheet=cfg.datasheet, hyperparams=sel.best_hyperparams)
        return fitted


def run_benchmark(config: RunConfig,
                  series: TelemetrySeries) -> BenchmarkReport:
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

    trainable = [m for m in config.models if m in analysis.TRAINABLE_MODELS]
    windows = TrainingWindows(series, config.preprocess)
    # each study's slices, or its error, sliced once; pvpro fits every
    # training slice of them from the datasheet's initial guess
    pools = lengths = None
    study_windows = []
    if config.studies.get("weather_cases"):
        pools = _outcome(analysis.weather_pools, series,
                         analysis.classify_days(
                             series, g_min=config.preprocess.g_min),
                         config.preprocess)
        if not isinstance(pools, Exception):
            study_windows += pools[0].values()
    if config.studies.get("training_length") and trainable:
        lengths = _outcome(analysis.training_length_windows, series,
                           config.grid_spec.training_lengths_days,
                           preprocess=config.preprocess, windows=windows)
        if not isinstance(lengths, Exception):
            study_windows += [window for slices in lengths[1].values()
                              if slices is not None for window in slices]
    day_starts = [day.astype("datetime64[s]") for day in eval_days]
    runner = _DayAheadRunner(config, series, windows)
    runner.prepare(eval_start, day_starts, study_windows)
    tests = [series.slice_time(day_start, day_start + DAY)
             for day_start in day_starts]
    predictions = {name: runner.predict(name, day_starts, tests)
                   for name in config.models}

    daily = {name: [] for name in config.models}
    pooled = {name: {"ts": [], "pred": [], "meas": [], "g": []}
              for name in config.models}
    forecasts = []
    for k, (day, test) in enumerate(zip(eval_days, tests)):
        day_label = str(day)
        for name in config.models:
            pred = predictions[name][k]
            if isinstance(pred, PvprofError):
                daily[name].append({"day": day_label, "skipped": str(pred)})
                continue
            try:
                report = analysis.compute_metrics(
                    pred, test.power, config.p_nominal,
                    daylight_only=config.metrics_daylight_only,
                    g_poa=test.g_poa, g_min=config.preprocess.g_min)
            except (InsufficientDataError, NumericalError) as exc:
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

    trajectory = list(runner.day_fits.values())
    studies = _run_studies(config, aggregate, agg_inputs, trajectory,
                           trainable, pools, lengths, runner.solved)

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


def _study(slices, run):
    """The JSON of the study ``run()`` on ``slices``; a slicing error, or
    the study's own ``InsufficientDataError`` or ``NumericalError``, as
    ``{"error": ...}``."""
    if isinstance(slices, Exception):
        return {"error": str(slices)}
    try:
        return _study_to_json(run())
    except (InsufficientDataError, NumericalError) as exc:
        return {"error": str(exc)}


def _run_studies(config, aggregate, agg_inputs, trajectory, trainable,
                 pools, lengths, solved):
    studies = {}
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
        studies["weather_cases"] = _study(
            pools, lambda: analysis.weather_case_study(
                pools, trainable, topo=config.topology,
                datasheet=config.datasheet, p_nominal=config.p_nominal,
                g_min=config.preprocess.g_min, solved=solved))
    if config.studies.get("sweep") and config.datasheet is not None:
        try:
            reference = config.datasheet.desoto_params
        except ExtractionError as exc:
            # no reference curve: record the failure as the other studies do
            studies["sweep"] = {"error": str(exc)}
        else:
            model = next((fit for fit in reversed(trajectory)
                          if fit.error is None), reference)
            results = analysis.interpretability_sweep(
                model, {"g_poa": (0.0, 1000.0), "t_module": (0.0, 80.0),
                        "hod": (0.0, 1.0)},
                topo=config.topology, datasheet=config.datasheet,
                reference_params=reference)
            studies["sweep"] = {
                feature: {key: result.groups[key]
                          for key in ("grid", "curves")}
                for feature, result in results.items()}
    if config.studies.get("training_length") and not trainable:
        studies["training_length"] = {
            "error": "no trainable model in the roster"}
    elif config.studies.get("training_length"):
        studies["training_length"] = _study(
            lengths, lambda: analysis.training_length_sweep(
                "pvpro" if "pvpro" in trainable else trainable[0], lengths,
                topo=config.topology, datasheet=config.datasheet,
                p_nominal=config.p_nominal, g_min=config.preprocess.g_min,
                solved=solved))
    return studies
