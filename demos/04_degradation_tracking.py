"""Tracking degradation with rolling re-fits.

A series resistance that creeps up 15% over a month is tracked by daily
re-fits on trailing 3-day windows.  Compares the fitted trajectory with the
injected drift and charts both.
"""

import os

import numpy as np

from pvprof import (ArrayTopology, DegradationScenario, SdmParamsRef,
                    WeatherProfile, generate_dataset, rolling_fit,
                    synthesize_datasheet, update_schedule)
from pvprof import charts

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

truth = SdmParamsRef(9.5, 3e-10, 0.35, 400.0, 1.1)
topo = ArrayTopology(72, 12, 8)
datasheet = synthesize_datasheet(truth, 72, alpha_isc=0.004)
profile = WeatherProfile(days=30, seed=30)
scenario = DegradationScenario.linear(r_s=0.15)
series, _ = generate_dataset(truth, topo, profile, scenario,
                             noise_v=0.001, noise_i=0.001, alpha_isc=0.004)

window = np.timedelta64(3, "D")
ends = update_schedule(series, window, np.timedelta64(1, "D"))
results = rolling_fit(series, topo, window, ends, datasheet)
good = [r for r in results if r.converged]
print(f"{len(good)}/{len(results)} windows converged")

t0 = series.timestamp[0]
day = np.array([(r.window_end - t0) / np.timedelta64(1, "D") for r in good])
fitted = np.array([r.params.r_s for r in good])
injected = truth.r_s * (1.0 + 0.15 * (day - 1.5) / 30.0)  # window midpoint

slope_fit = np.polyfit(day, fitted, 1)[0]
slope_true = truth.r_s * 0.15 / 30.0
print(f"injected r_s slope {slope_true:.4e} ohm/day, "
      f"fitted {slope_fit:.4e} ohm/day "
      f"({(slope_fit - slope_true) / slope_true:+.1%})")

svg = charts.line_chart({"fitted r_s": fitted, "injected r_s": injected},
                        "Series resistance trajectory", "r_s (ohm)",
                        x_values=day)
path = os.path.join(OUT, "rs_trajectory.svg")
with open(path, "w") as fh:
    fh.write(svg)
print("wrote", path)
