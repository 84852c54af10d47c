"""One day-ahead forecast, six ways.

Predicts the last day of a synthetic fortnight from its measured weather
with every supported model: the dynamic re-fitted diode model, the nominal
datasheet model, smart and naive persistence, and the two regressors.
"""

from pvprof import (ArrayTopology, SdmParamsRef, WeatherProfile,
                    apply_quality_pipeline, compute_metrics, feature_matrix,
                    fit_desoto_from_datasheet, fit_window, generate_dataset,
                    naive_persistence, predict_regressor, simulate_power,
                    smart_persistence, synthesize_datasheet, train_regressor)
from pvprof.series import DAY, WeatherSeries

truth = SdmParamsRef(9.5 * 0.9, 3e-10, 0.35 * 1.2, 400.0, 1.1)  # degraded
topo = ArrayTopology(72, 12, 8)
datasheet = synthesize_datasheet(SdmParamsRef(9.5, 3e-10, 0.35, 400.0, 1.1),
                                 72, alpha_isc=0.004)
p_nominal = datasheet.v_mp * 12 * datasheet.i_mp * 8

profile = WeatherProfile(days=14, cloud_days=(4, 9, 13), cloud_depth=0.5,
                         seed=5)
series, _ = generate_dataset(truth, topo, profile, alpha_isc=0.004)

day_start = series.days()[-1].astype("datetime64[s]")
test = series.slice_time(day_start, day_start + DAY)
weather = WeatherSeries.from_telemetry(test)
history = series.slice_time(series.timestamp[0], day_start)
print(f"forecast day {series.days()[-1]} "
      f"({'cloudy' if 13 in profile.cloud_days else 'clear'}), "
      f"history {len(history)} records")

predictions = {}

# dynamic physical model: re-fit on the trailing 3 days
window = history.slice_time(day_start - 3 * DAY, day_start)
mask = apply_quality_pipeline(window)
fit = fit_window(window.select(mask.retained), topo, datasheet)
predictions["pvpro"] = simulate_power(fit.params, test.g_poa, test.t_module,
                                      topo, alpha_isc=0.004)

# nominal model: datasheet parameters, never updated
nominal = fit_desoto_from_datasheet(datasheet)
predictions["nominal"] = simulate_power(nominal, test.g_poa, test.t_module,
                                        topo, alpha_isc=0.004)

# persistence
prev = history.slice_time(day_start - DAY, day_start)
predictions["smart_persistence"] = smart_persistence(
    (prev.timestamp, prev.power), (prev.timestamp, prev.g_poa),
    (weather.timestamp, weather.g_poa)).p_pred
predictions["naive_persistence"] = naive_persistence(
    (prev.timestamp, prev.power), weather.timestamp).p_pred

# regressors trained on the trailing week of daylight data
train = history.slice_time(day_start - 7 * DAY, day_start)
train = train.select(train.g_poa >= 50.0)
X = feature_matrix(train.timestamp, train.g_poa, train.t_module)
Xq = feature_matrix(test.timestamp, test.g_poa, test.t_module)
for name, family, hp in (("lr", "linear", {"lam": 1e-3}),
                         ("kr", "kernel_ridge", {"lam": 1e-3, "gamma": 1.0})):
    model = train_regressor(family, X, train.power, hp)
    predictions[name] = predict_regressor(model, Xq)

print(f"{'model':>18} {'nMAE':>8} {'nRMSE':>8}")
for name, pred in predictions.items():
    report = compute_metrics(pred, test.power, p_nominal, daylight_only=True,
                             g_poa=test.g_poa)
    print(f"{name:>18} {report.nmae:8.3%} {report.nrmse:8.3%}")
