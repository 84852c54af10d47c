"""pvprof: single-diode PV performance modeling and forecast benchmarking.

The package covers the full loop: clean production telemetry, re-fit the
five-parameter equivalent circuit from recent data, convert measured
plane-of-array irradiance and module temperature into day-ahead DC power,
and benchmark the dynamic model against persistence, datasheet and
regression baselines.
"""

from .analysis import (MetricsReport, StudyResult, classify_days,
                       compute_metrics, exceedance_density,
                       interpretability_sweep, seasonal_partition,
                       training_length_sweep, training_length_windows,
                       weather_case_study, weather_pools)
from .baselines import (Datasheet, GridSearchSpec, RegressorModel,
                        feature_matrix, fit_desoto_from_datasheet, grid_search,
                        naive_persistence, predict_regressor,
                        smart_persistence, synthesize_datasheet,
                        train_regressor)
from .benchmark import BenchmarkReport, RunConfig, run_benchmark
from .exceptions import (ConfigError, DataError, ExtractionError,
                         FitDegeneracyError, InsufficientDataError,
                         NumericalError, PvprofError, SolverError,
                         TrainingError)
from .fitting import (FitWindowResult, SolvedWindows, default_bounds,
                      fit_window, fit_windows, initial_guess, loss,
                      rolling_fit, simulate_power, update_schedule)
from .preprocess import (PreprocessConfig, QualityMask,
                         apply_quality_pipeline, filter_clipping,
                         filter_night, remove_outliers_regression)
from .sdm import (ArrayTopology, IvPoint, OperatingConditions,
                  SdmParamsOperating, SdmParamsRef, find_mpp,
                  open_circuit_voltage, short_circuit_current,
                  simulate_array_mpp, solve_current, solve_voltage,
                  translate_to_operating)
from .series import ForecastSeries, TelemetrySeries
from .synth import (DegradationScenario, GroundTruthLog, WeatherProfile,
                    apply_clouds, clear_sky_profile, generate_dataset,
                    module_temperature)

__version__ = "0.1.0"
