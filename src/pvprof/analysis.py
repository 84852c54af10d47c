"""Error metrics, the trained-model interface and evaluation studies.

Nameplate-normalized error metrics (nMAE, nRMSE, per-sample bias); the
``train_model``/``predict_model`` pair that trains a roster model on a clean
telemetry slice and predicts power from ``baselines.feature_matrix`` rows of
measured weather (``predict_model`` is the one route from any model to
power, the interpretability sweep's included); and the study suite: seasonal
partition, weather-condition train/test cases, bias-exceedance densities,
one-feature interpretability sweeps, and the training-length sweep.
"""

from dataclasses import dataclass, field

import numpy as np

from . import baselines, fitting, sdm
from .exceptions import ConfigError, DataError, InsufficientDataError
from .preprocess import (PreprocessConfig, apply_quality_pipeline,
                         training_window)
from .series import DAY, TelemetrySeries, _as_timestamps

DEFAULT_EXCEEDANCE_THRESHOLDS = (0.10, 0.20)
DEFAULT_CLEAR_THRESHOLD = 0.05
WEATHER_CASES = (("clear", "clear"), ("clear", "cloudy"),
                 ("cloudy", "clear"), ("cloudy", "cloudy"),
                 ("mix", "clear"), ("mix", "cloudy"))


@dataclass
class MetricsReport:
    """Normalized error statistics of one prediction/measurement pairing."""

    n_samples: int
    nmae: float
    nrmse: float
    nbe_series: np.ndarray
    nbe_mean: float
    exceedance: dict

    def to_json_dict(self, with_series=False):
        d = {"n_samples": self.n_samples, "nmae": self.nmae,
             "nrmse": self.nrmse, "nbe_mean": self.nbe_mean,
             "exceedance": {f"{tau:g}": v for tau, v in self.exceedance.items()}}
        if with_series:
            d["nbe_series"] = self.nbe_series.tolist()
        return d


@dataclass
class StudyResult:
    study_id: str
    groups: dict
    cv_of_cases: dict | None = None
    notes: list = field(default_factory=list)


WEATHER_SENSITIVE_CV = 0.20


def coefficient_of_variation(values):
    """Population standard deviation over mean."""
    vals = np.asarray(values, dtype=float)
    mean = float(vals.mean())
    return float(vals.std() / mean) if mean != 0 else 0.0


def exceedance_density(nbe_series, thresholds=DEFAULT_EXCEEDANCE_THRESHOLDS):
    """Fraction of samples whose signed bias exceeds each threshold."""
    nbe = np.asarray(nbe_series, dtype=float)
    if nbe.size == 0:
        raise InsufficientDataError("empty bias series")
    return {float(tau): float(np.mean(nbe > tau)) for tau in thresholds}


def compute_metrics(pred, meas, p_nominal, daylight_only=True, g_poa=None,
                    g_min=50.0,
                    thresholds=DEFAULT_EXCEEDANCE_THRESHOLDS) -> MetricsReport:
    """nMAE, nRMSE and bias statistics, normalized by nameplate power.

    With ``daylight_only`` (the default) samples whose measured irradiance
    falls below ``g_min`` are excluded, since night zeros deflate the errors;
    that mode requires the ``g_poa`` series.
    """
    pred = np.asarray(pred, dtype=float)
    meas = np.asarray(meas, dtype=float)
    if pred.shape != meas.shape:
        raise DataError("prediction and measurement series differ in length")
    if p_nominal <= 0:
        raise ConfigError("nominal power must be positive")
    if daylight_only:
        if g_poa is None:
            raise ConfigError("daylight_only metrics need the irradiance series")
        g = np.asarray(g_poa, dtype=float)
        if g.shape != meas.shape:
            raise DataError("irradiance series differs in length")
        keep = g >= g_min
    else:
        keep = np.ones(meas.shape, dtype=bool)
    n = int(keep.sum())
    if n == 0:
        raise InsufficientDataError("no samples left after daylight filtering")
    resid = (pred[keep] - meas[keep]) / p_nominal
    nbe = resid
    return MetricsReport(
        n_samples=n,
        nmae=float(np.mean(np.abs(resid))),
        nrmse=float(np.sqrt(np.mean(resid ** 2))),
        nbe_series=nbe,
        nbe_mean=float(np.mean(nbe)),
        exceedance=exceedance_density(nbe, thresholds))


REGRESSOR_FAMILIES = {"lr": "linear", "kr": "kernel_ridge"}
# roster names that train_model accepts
TRAINABLE_MODELS = ("pvpro", "nominal", *REGRESSOR_FAMILIES)


def train_model(name, train: TelemetrySeries, *, topo, datasheet,
                init=None, hyperparams=None):
    """Train one roster model on a clean slice of telemetry.

    ``pvpro`` fits the five parameters of the system (``topo`` and
    ``datasheet``) to the slice from ``init`` (default: the datasheet's
    initial guess) and returns the ``FitWindowResult``; ``nominal`` returns
    the datasheet extraction; ``lr``/``kr`` a ``RegressorModel``.
    """
    if name == "pvpro":
        if init is None:
            init = fitting.initial_guess(datasheet)
        return fitting.fit_window(train, topo, init, datasheet)
    if name == "nominal":
        return datasheet.desoto_params
    if name in REGRESSOR_FAMILIES:
        X = baselines.feature_matrix(train.timestamp, train.g_poa,
                                     train.t_module)
        return baselines.train_regressor(REGRESSOR_FAMILIES[name], X,
                                         train.power, hyperparams)
    raise ConfigError(f"model {name!r} is not trainable")


def predict_model(fitted, features, *, topo, datasheet, g_min):
    """Power predicted by a trained model from ``feature_matrix`` rows.

    This is the one route from a model to power.  ``features`` holds
    ``[g_poa, t_module, hod]`` rows.  A ``RegressorModel`` reads all three;
    a physical model (an ``SdmParamsRef``, or a ``FitWindowResult``'s
    parameters) simulates the array of ``topo`` from irradiance and
    temperature, with the datasheet's ``alpha_isc`` (0 without one), and
    gives zero power below ``g_min``.
    """
    if isinstance(fitted, baselines.RegressorModel):
        return baselines.predict_regressor(fitted, features)
    if isinstance(fitted, fitting.FitWindowResult):
        fitted = fitted.params
    if not isinstance(fitted, sdm.SdmParamsRef):
        raise ConfigError(f"cannot predict from a {type(fitted).__name__}")
    if topo is None:
        raise ConfigError("a physical model needs the array topology")
    alpha_isc = datasheet.alpha_isc if datasheet is not None else 0.0
    return fitting.simulate_power(fitted, features[:, 0], features[:, 1],
                                  topo, g_min=g_min, alpha_isc=alpha_isc)


_SEASON_BY_MONTH = {3: "spring", 4: "spring", 5: "spring",
                    6: "summer", 7: "summer", 8: "summer",
                    9: "fall", 10: "fall", 11: "fall",
                    12: "winter", 1: "winter", 2: "winter"}
SEASONS = ("spring", "summer", "fall", "winter")


def season_of(timestamps):
    """Season label per timestamp; December groups with the following
    January/February (leap days are winter)."""
    ts = _as_timestamps(timestamps)
    months = ts.astype("datetime64[M]").astype(int) % 12 + 1
    return np.array([_SEASON_BY_MONTH[m] for m in months])


def seasonal_partition(timestamps, pred, meas, p_nominal, g_poa=None,
                       daylight_only=True, g_min=50.0) -> StudyResult:
    """Metrics aggregated inside the four calendar season windows."""
    labels = season_of(timestamps)
    groups = {}
    for season in SEASONS:
        sel = labels == season
        if not np.any(sel):
            groups[season] = None
            continue
        try:
            groups[season] = compute_metrics(
                np.asarray(pred)[sel], np.asarray(meas)[sel], p_nominal,
                daylight_only=daylight_only,
                g_poa=None if g_poa is None else np.asarray(g_poa)[sel],
                g_min=g_min)
        except InsufficientDataError:
            groups[season] = None
    return StudyResult("seasonal", groups)


def classify_days(series: TelemetrySeries, g_min=50.0,
                  threshold=DEFAULT_CLEAR_THRESHOLD):
    """Label each day clear or cloudy from its power fluctuation.

    The variability index is the mean absolute sample-to-sample power change
    over daylight samples, relative to the day's peak daylight power; a day
    is clear iff the index falls below ``threshold``.  Days with fewer than
    three daylight samples are skipped.
    """
    series.validate()
    p = series.power
    days = series.day_index()
    daylight = series.g_poa >= g_min
    labels = {}
    for day in np.unique(days):
        sel = (days == day) & daylight
        pd = p[sel]
        if pd.size < 3:
            continue
        peak = float(pd.max())
        if peak <= 0:
            continue
        index = float(np.mean(np.abs(np.diff(pd)))) / peak
        labels[day] = "clear" if index < threshold else "cloudy"
    return labels


def _split_pool(days):
    train = [d for k, d in enumerate(days) if k % 2 == 0]
    test = [d for k, d in enumerate(days) if k % 2 == 1]
    return train, test


def _records_of_days(series, mask_retained, day_list):
    days = series.day_index()
    sel = np.isin(days, np.array(day_list, dtype="datetime64[D]")) & mask_retained
    return series.select(sel)


def weather_case_study(series: TelemetrySeries, labels, models, *,
                       topo: sdm.ArrayTopology, datasheet, p_nominal,
                       preprocess: PreprocessConfig = PreprocessConfig(),
                       g_min=50.0) -> StudyResult:
    """Six train/test weather combinations and the spread across them.

    Labeled days are split alternately into train and test pools per label;
    each case trains on clear, cloudy or mixed train-pool days and scores on
    clear or cloudy test-pool days.  Per model the study reports the six
    nMAE/nRMSE values and their coefficient of variation (population standard
    deviation over mean).

    The quality mask is computed once on the whole series, on purpose: train
    and test days interleave, so this is a weather-sensitivity study, not a
    day-ahead one, and no case trains only on records before its test days.
    The day-ahead runner and ``training_length_sweep`` mask each training
    slice on its own instead (``preprocess.training_window``).
    """
    series.validate()
    retained = apply_quality_pipeline(series, preprocess).retained

    clear_days = sorted(d for d, lab in labels.items() if lab == "clear")
    cloudy_days = sorted(d for d, lab in labels.items() if lab == "cloudy")
    if len(clear_days) < 2 or len(cloudy_days) < 2:
        raise InsufficientDataError(
            f"need >= 2 clear and >= 2 cloudy days, have "
            f"{len(clear_days)} clear / {len(cloudy_days)} cloudy")
    clear_train, clear_test = _split_pool(clear_days)
    cloudy_train, cloudy_test = _split_pool(cloudy_days)
    train_pool = {"clear": clear_train, "cloudy": cloudy_train,
                  "mix": sorted(clear_train + cloudy_train)}
    test_pool = {"clear": clear_test, "cloudy": cloudy_test}

    groups = {}
    cv = {}
    notes = []
    for name in models:
        case_reports = {}
        for train_kind, test_kind in WEATHER_CASES:
            train = _records_of_days(series, retained, train_pool[train_kind])
            test = _records_of_days(series, retained, test_pool[test_kind])
            if len(train) < 50 or len(test) == 0:
                raise InsufficientDataError(
                    f"case {train_kind}/{test_kind} unfillable: "
                    f"{len(train)} train / {len(test)} test records")
            fitted = train_model(name, train, topo=topo, datasheet=datasheet)
            X = baselines.feature_matrix(test.timestamp, test.g_poa,
                                         test.t_module)
            pred = predict_model(fitted, X, topo=topo, datasheet=datasheet,
                                 g_min=g_min)
            case_reports[f"{train_kind}/{test_kind}"] = compute_metrics(
                pred, test.power, p_nominal, daylight_only=True,
                g_poa=test.g_poa, g_min=g_min)
        groups[name] = case_reports
        cv[name] = {metric: coefficient_of_variation(
            [getattr(r, metric) for r in case_reports.values()])
            for metric in ("nmae", "nrmse")}
        if cv[name]["nmae"] > WEATHER_SENSITIVE_CV:
            notes.append(f"{name} flagged weather-sensitive "
                         f"(CV > {WEATHER_SENSITIVE_CV:.0%})")
    return StudyResult("weather_cases", groups, cv_of_cases=cv, notes=notes)


_SWEEP_FEATURES = ("g_poa", "t_module", "hod")
# the sweep's fixed inputs, in ``_SWEEP_FEATURES`` order
_SWEEP_CENTRE = (1000.0, 25.0, 0.5)


def interpretability_sweep(model, varied, value_range, *, topo=None,
                           datasheet=None, reference_params=None,
                           n_points=101, g_min=0.0) -> StudyResult:
    """Predicted power while one input varies and the others stay fixed.

    The inputs are ``feature_matrix`` rows held at 1000 W/m^2, 25 degC and
    mid-day, with ``varied`` swept over ``value_range``; ``model`` is any
    model ``predict_model`` takes (physical models ignore the hour).  When
    ``reference_params`` is given a reference curve predicted from those
    parameters is emitted alongside.
    """
    if varied not in _SWEEP_FEATURES:
        raise ConfigError(f"unknown sweep feature {varied!r}")
    grid = np.linspace(float(value_range[0]), float(value_range[1]), n_points)
    X = np.tile(_SWEEP_CENTRE, (n_points, 1))
    X[:, _SWEEP_FEATURES.index(varied)] = grid
    curves = {"model": predict_model(model, X, topo=topo,
                                     datasheet=datasheet, g_min=g_min)}
    if reference_params is not None:
        curves["reference"] = predict_model(reference_params, X, topo=topo,
                                            datasheet=datasheet, g_min=g_min)
    return StudyResult("sweep", {"feature": varied, "grid": grid,
                                 "curves": curves})


def training_length_sweep(model_name, series: TelemetrySeries, lengths_days, *,
                          topo, datasheet, p_nominal, n_eval_days=5,
                          preprocess: PreprocessConfig = PreprocessConfig(),
                          g_min=50.0) -> StudyResult:
    """Day-ahead error of one model as a function of training-window length.

    Every length is scored over the same trailing evaluation days; each
    evaluation day is predicted from its own measured weather by a model
    trained only on ``preprocess.training_window`` of the preceding
    ``length`` days (fractional lengths included).  Lengths that do not fit
    the available history are skipped with a note.
    """
    series.validate()
    days = series.days()
    if len(days) < n_eval_days + 1:
        raise InsufficientDataError("series too short for the evaluation span")
    eval_days = days[-n_eval_days:]
    groups = {}
    notes = []
    for length in lengths_days:
        need = np.timedelta64(int(length * 86400), "s")
        if eval_days[0].astype("datetime64[s]") - need < days[0]:
            groups[float(length)] = None
            notes.append(f"length {length} d skipped: insufficient history")
            continue
        preds, meas, gs = [], [], []
        for day in eval_days:
            day = day.astype("datetime64[s]")
            train = training_window(series, day, need, preprocess)
            test = series.slice_time(day, day + DAY)
            fitted = train_model(model_name, train, topo=topo,
                                 datasheet=datasheet)
            X = baselines.feature_matrix(test.timestamp, test.g_poa,
                                         test.t_module)
            preds.append(predict_model(fitted, X, topo=topo,
                                       datasheet=datasheet, g_min=g_min))
            meas.append(test.power)
            gs.append(test.g_poa)
        report = compute_metrics(np.concatenate(preds), np.concatenate(meas),
                                 p_nominal, daylight_only=True,
                                 g_poa=np.concatenate(gs), g_min=g_min)
        groups[float(length)] = report
    return StudyResult("training_length", groups, notes=notes)
