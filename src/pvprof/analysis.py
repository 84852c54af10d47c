"""Error metrics, the trained-model interface and evaluation studies.

Nameplate-normalized error metrics (nMAE, nRMSE, per-sample bias); the
``train_model``/``predict_model`` pair that trains a roster model on a clean
telemetry slice and predicts power from ``baselines.feature_matrix`` rows of
measured weather (``predict_model`` is the one route from any model to
power, the interpretability sweep's included); and the study suite: seasonal
partition, weather-condition train/test cases, bias-exceedance densities,
one-feature interpretability sweeps, and the training-length sweep.  The
two studies that train models take their training and test records as
their one input, sliced by ``weather_pools`` and ``training_length_windows``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import baselines, fitting, sdm
from .exceptions import (ConfigError, DataError, InsufficientDataError,
                         NumericalError)
from .preprocess import (PreprocessConfig, TrainingWindows,
                         apply_quality_pipeline)
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
    """Fraction of samples whose signed bias exceeds each threshold.

    Raises ``NumericalError`` if any entry is not finite: NaN exceeds no
    threshold, so it would read as a sample without bias.
    """
    nbe = np.asarray(nbe_series, dtype=float)
    if nbe.size == 0:
        raise InsufficientDataError("empty bias series")
    bad = np.count_nonzero(~np.isfinite(nbe))
    if bad:
        raise NumericalError(f"{bad} of {nbe.size} bias entries not finite")
    return {float(tau): float(np.mean(nbe > tau)) for tau in thresholds}


def compute_metrics(pred, meas, p_nominal, daylight_only=True, g_poa=None,
                    g_min=50.0,
                    thresholds=DEFAULT_EXCEEDANCE_THRESHOLDS) -> MetricsReport:
    """nMAE, nRMSE and bias statistics, normalized by nameplate power.

    With ``daylight_only`` (the default) samples whose measured irradiance
    falls below ``g_min`` are excluded, since night zeros deflate the errors;
    that mode requires the ``g_poa`` series.  Raises ``NumericalError`` if
    a kept prediction or measurement is not finite, rather than returning
    NaN statistics.
    """
    pred = np.asarray(pred, dtype=float)
    meas = np.asarray(meas, dtype=float)
    if pred.shape != meas.shape:
        raise DataError("prediction and measurement series differ in length")
    if not 0 < p_nominal < np.inf:
        raise ConfigError(f"nominal power must be finite and > 0, "
                          f"got {p_nominal!r}")
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
    bad = np.count_nonzero(~np.isfinite(resid))
    if bad:
        raise NumericalError(f"{bad} of {n} kept samples have a non-finite "
                             "prediction or measurement")
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


def train_model(name, trains, *, topo, datasheet, hyperparams=None,
                solved=None):
    """Train one roster model on each of a list of clean telemetry slices.

    Returns one trained model per slice, in order.  ``pvpro`` fits the five
    parameters of the system (``topo`` and ``datasheet``) to every slice
    from the datasheet's initial guess in one ``fitting.fit_windows`` batch
    and returns the ``FitWindowResult``s; a slice that ``solved`` (a
    ``fitting.SolvedWindows`` of the system) holds is read from it, not
    solved again.  ``nominal`` returns the datasheet extraction;
    ``lr``/``kr`` a ``RegressorModel`` per slice.
    """
    if name == "pvpro":
        return fitting.fit_windows(trains, topo, datasheet, solved)
    if name == "nominal":
        return [datasheet.desoto_params for _ in trains]
    if name in REGRESSOR_FAMILIES:
        return [baselines.train_regressor(
            REGRESSOR_FAMILIES[name],
            baselines.feature_matrix(train.timestamp, train.g_poa,
                                     train.t_module),
            train.power, hyperparams) for train in trains]
    raise ConfigError(f"model {name!r} is not trainable")


def predict_model(fitted, features, *, topo, datasheet, g_min):
    """Power predicted by a trained model from ``feature_matrix`` rows.

    This is the one route from a model to power.  ``features`` holds
    ``[g_poa, t_module, hod]`` rows.  A ``RegressorModel`` reads all three;
    a physical model (an ``SdmParamsRef``, or a ``FitWindowResult``'s
    parameters) simulates the array of ``topo`` from irradiance and
    temperature, with the datasheet's ``alpha_isc`` (0 without one), and
    gives zero power below ``g_min``.

    ``fitted`` may also be a list of trained models, with ``features`` the
    list of their blocks of rows; the predictions come back as a list, one
    array per block.  The physical models' blocks are stacked into one
    ``fitting.simulate_power`` call with one parameter row per record, and
    each block's power is what its model predicts for it alone.  A single
    model is a list of one.
    """
    if not isinstance(fitted, list):
        return predict_model([fitted], [features], topo=topo,
                             datasheet=datasheet, g_min=g_min)[0]
    preds = [None] * len(fitted)
    physical = []
    for k, model in enumerate(fitted):
        if isinstance(model, baselines.RegressorModel):
            preds[k] = baselines.predict_regressor(model, features[k])
            continue
        if isinstance(model, fitting.FitWindowResult):
            model = model.params
        if not isinstance(model, sdm.SdmParamsRef):
            raise ConfigError(f"cannot predict from a {type(model).__name__}")
        physical.append((k, model))
    if not physical:
        return preds
    if topo is None:
        raise ConfigError("a physical model needs the array topology")
    blocks = [features[k] for k, _ in physical]
    counts = [len(block) for block in blocks]
    rows = np.repeat([model.as_array() for _, model in physical], counts,
                     axis=0)
    X = np.concatenate(blocks)
    alpha_isc = datasheet.alpha_isc if datasheet is not None else 0.0
    power = fitting.simulate_power(rows, X[:, 0], X[:, 1], topo, g_min=g_min,
                                   alpha_isc=alpha_isc)
    for (k, _), pred in zip(physical, np.split(power, np.cumsum(counts)[:-1])):
        preds[k] = pred
    return preds


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


def weather_pools(series: TelemetrySeries, labels,
                  preprocess: PreprocessConfig = PreprocessConfig()):
    """The weather cases' retained records: ``(trains, tests)``, the
    training pools by kind (clear, cloudy, mix) and the test pools (clear,
    cloudy).

    Labeled days are split alternately into train and test pools per
    label; the mixed pool trains on both kinds' training days.  Raises
    ``InsufficientDataError`` unless there are two days of each label, and
    unless every case has 50 training records and one test record.

    The quality mask is computed once on the whole series, on purpose: train
    and test days interleave, so this is a weather-sensitivity study, not a
    day-ahead one, and no case trains only on records before its test days.
    The day-ahead runner and ``training_length_windows`` mask each training
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

    trains = {kind: _records_of_days(series, retained, days)
              for kind, days in train_pool.items()}
    tests = {kind: _records_of_days(series, retained, days)
             for kind, days in test_pool.items()}
    for train_kind, test_kind in WEATHER_CASES:
        if len(trains[train_kind]) < 50 or len(tests[test_kind]) == 0:
            raise InsufficientDataError(
                f"case {train_kind}/{test_kind} unfillable: "
                f"{len(trains[train_kind])} train / "
                f"{len(tests[test_kind])} test records")
    return trains, tests


def weather_case_study(pools, models, *, topo: sdm.ArrayTopology, datasheet,
                       p_nominal, g_min=50.0, solved=None) -> StudyResult:
    """Six train/test weather combinations and the spread across them.

    ``pools`` is ``weather_pools``' ``(trains, tests)``: each case trains
    on the clear, cloudy or mixed training pool and scores on its clear or
    cloudy test pool.  Each model is trained once per training pool, its
    three pools in one ``train_model`` call (one batch of window fits for
    ``pvpro``, read from ``solved`` where that holds them), and that one
    trained model is scored on every test pool ``WEATHER_CASES`` pairs with
    the pool, the six cases in one ``predict_model`` call.  Per model
    the study reports the six nMAE/nRMSE values and their coefficient of
    variation (population standard deviation over mean).
    """
    trains, tests = pools
    features = {kind: baselines.feature_matrix(test.timestamp, test.g_poa,
                                               test.t_module)
                for kind, test in tests.items()}

    groups = {}
    cv = {}
    notes = []
    for name in models:
        # the fits are deterministic, so one model per training pool serves
        # every case that trains on that pool
        trained = dict(zip(trains, train_model(
            name, list(trains.values()), topo=topo, datasheet=datasheet,
            solved=solved)))
        preds = predict_model(
            [trained[train_kind] for train_kind, _ in WEATHER_CASES],
            [features[test_kind] for _, test_kind in WEATHER_CASES],
            topo=topo, datasheet=datasheet, g_min=g_min)
        case_reports = {}
        for (train_kind, test_kind), pred in zip(WEATHER_CASES, preds):
            test = tests[test_kind]
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


def interpretability_sweep(model, ranges, *, topo=None, datasheet=None,
                           reference_params=None, n_points=101,
                           g_min=0.0) -> dict:
    """Predicted power while one input varies and the others stay fixed,
    for each input of ``ranges``.

    ``ranges`` maps each input to sweep, one of ``g_poa``, ``t_module`` and
    ``hod``, to its ``(low, high)`` range; the result maps it to its
    ``StudyResult``.  The inputs are ``feature_matrix`` rows held at
    1000 W/m^2, 25 degC and mid-day, with the swept one on an ``n_points``
    grid over its range; ``model`` is any model ``predict_model`` takes
    (physical models ignore the hour).  When ``reference_params`` is given
    a reference curve predicted from those parameters is emitted alongside.
    Every curve comes from one ``predict_model`` call, and each is what its
    model predicts for its grid alone.
    """
    unknown = [varied for varied in ranges if varied not in _SWEEP_FEATURES]
    if unknown:
        raise ConfigError(f"unknown sweep feature {unknown[0]!r}")
    curves = {"model": model}
    if reference_params is not None:
        curves["reference"] = reference_params
    grids, blocks = {}, []
    for varied, value_range in ranges.items():
        grid = np.linspace(float(value_range[0]), float(value_range[1]),
                           n_points)
        X = np.tile(_SWEEP_CENTRE, (n_points, 1))
        X[:, _SWEEP_FEATURES.index(varied)] = grid
        grids[varied] = grid
        blocks += [X] * len(curves)
    preds = iter(predict_model(list(curves.values()) * len(ranges), blocks,
                               topo=topo, datasheet=datasheet, g_min=g_min))
    return {varied: StudyResult("sweep", {
                "feature": varied, "grid": grid,
                "curves": {name: next(preds) for name in curves}})
            for varied, grid in grids.items()}


def training_length_windows(series: TelemetrySeries, lengths_days,
                            n_eval_days=5,
                            preprocess: PreprocessConfig = PreprocessConfig(),
                            windows=None):
    """The slices of ``training_length_sweep``: ``(tests, slices, notes)``.

    ``tests`` holds the records of each of the series' last
    ``n_eval_days`` days.  ``slices`` maps every length in days to its
    training slice before each of those days,
    ``preprocess.training_window`` of the preceding ``length`` days
    (fractional lengths included), read from ``windows``, the run's
    ``preprocess.TrainingWindows`` of ``series`` and ``preprocess`` (a new
    one when None).  A length that does not fit the history before the
    first evaluation day maps to None, with a note in ``notes``.
    """
    series.validate()
    windows = TrainingWindows.of(series, preprocess, windows)
    days = series.days()
    if len(days) < n_eval_days + 1:
        raise InsufficientDataError("series too short for the evaluation span")
    eval_days = [day.astype("datetime64[s]") for day in days[-n_eval_days:]]
    slices = {}
    notes = []
    for length in lengths_days:
        need = np.timedelta64(int(length * 86400), "s")
        if eval_days[0] - need < days[0]:
            slices[float(length)] = None
            notes.append(f"length {length} d skipped: insufficient history")
            continue
        slices[float(length)] = [windows.get(day, need) for day in eval_days]
    tests = [series.slice_time(day, day + DAY) for day in eval_days]
    return tests, slices, notes


def training_length_sweep(model_name, windows, *, topo, datasheet, p_nominal,
                          g_min=50.0, solved=None) -> StudyResult:
    """Day-ahead error of one model as a function of training-window length.

    ``windows`` is ``training_length_windows``' ``(tests, slices, notes)``.
    Every length is scored over the same evaluation days; each day is
    predicted from its own measured weather by a model trained only on its
    slice, and a length without slices is reported as None.  All the
    (length, day) slices are trained in one ``train_model`` call, which for
    ``pvpro`` is one batch of window fits, read from ``solved`` where that
    holds them, and predicted in one ``predict_model`` call.
    """
    tests, slices, notes = windows
    # every (length, day) window is trained in one call and predicted in
    # another
    features = [baselines.feature_matrix(test.timestamp, test.g_poa,
                                         test.t_module) for test in tests]
    pairs = [(train, X) for trains in slices.values() if trains is not None
             for train, X in zip(trains, features)]
    preds = iter(predict_model(
        train_model(model_name, [train for train, _ in pairs], topo=topo,
                    datasheet=datasheet, solved=solved),
        [X for _, X in pairs], topo=topo, datasheet=datasheet,
        g_min=g_min))
    meas = np.concatenate([test.power for test in tests])
    g_poa = np.concatenate([test.g_poa for test in tests])
    groups = {}
    for length, trains in slices.items():
        if trains is None:
            groups[length] = None
            continue
        pred = np.concatenate([next(preds) for _ in features])
        groups[length] = compute_metrics(pred, meas, p_nominal,
                                         daylight_only=True, g_poa=g_poa,
                                         g_min=g_min)
    return StudyResult("training_length", groups, notes=list(notes))
