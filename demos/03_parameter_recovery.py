"""Recovering circuit parameters from production data.

The estimator only sees three days of noisy MPP telemetry from a degraded
system plus the pristine module datasheet, and has to find the true
(drifted) parameters.  Compares the recovered set against the injected one.
"""

from pvprof import (ArrayTopology, SdmParamsRef, WeatherProfile,
                    apply_quality_pipeline, fit_window, generate_dataset,
                    initial_guess, synthesize_datasheet)
from pvprof.sdm import PARAM_NAMES

pristine = SdmParamsRef(9.5, 3e-10, 0.35, 400.0, 1.1)
degraded = SdmParamsRef(9.5 * 0.88, 3e-10, 0.35 * 1.4, 400.0 * 0.6, 1.1)
topo = ArrayTopology(72, 12, 8)
datasheet = synthesize_datasheet(pristine, 72, alpha_isc=0.004)

profile = WeatherProfile(days=3, cloud_days=(1,), cloud_depth=0.5, seed=7)
series, _ = generate_dataset(degraded, topo, profile,
                             noise_v=0.005, noise_i=0.005, alpha_isc=0.004)
mask = apply_quality_pipeline(series)
retained = series.select(mask.retained)
print(f"fitting on {len(retained)} retained records "
      f"({len(series) - len(retained)} filtered out)")

# every fit starts from the datasheet's parameters
start = initial_guess(datasheet)
result = fit_window(retained, topo, datasheet)
print(f"converged={result.converged} after {result.iterations} iterations, "
      f"loss {result.final_loss:.3e}")

print(f"{'parameter':>10} {'datasheet':>12} {'true':>12} "
      f"{'recovered':>12} {'error':>8}")
for name in PARAM_NAMES:
    true = getattr(degraded, name)
    rec = getattr(result.params, name)
    print(f"{name:>10} {getattr(start, name):12.4g} {true:12.4g} "
          f"{rec:12.4g} {abs(rec - true) / true:8.1%}")
print("\nNote: photocurrent, series resistance and ideality are well")
print("determined by noisy MPP-only data; saturation current trades off")
print("against ideality (the open-circuit voltage stays pinned) and the")
print("shunt term is barely observable at the maximum power point.")
