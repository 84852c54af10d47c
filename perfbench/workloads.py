"""The benchmark's workloads: one run configuration each.

Every workload uses the demo-06 plant (topology, datasheet and true
parameters).  Its telemetry is generated by ``pvprof synth`` from the
benchmark seed; one operation is one ``pvprof benchmark`` call on that
telemetry and configuration.
"""

from datetime import date, timedelta

TOPOLOGY = {"cells_in_series": 72, "modules_per_string": 12,
            "strings_in_parallel": 8}
DATASHEET = {"v_oc": 49.173233960313716, "i_sc": 9.491694765844741,
             "v_mp": 40.03260387410554, "i_mp": 8.906280334902181,
             "alpha_isc": 0.004, "beta_voc": -0.17644040663146326,
             "cells_in_series": 72}
TRUE_PARAMS = {"i_ph_ref": 9.5, "i_0_ref": 3e-10, "r_s": 0.35,
               "r_sh_ref": 400.0, "n_diode": 1.1}
START_DAY = "2024-06-01"
NO_STUDIES = {"seasonal": False, "weather_cases": False, "sweep": False,
              "training_length": False, "exceedance": False}
ALL_STUDIES = {"seasonal": True, "weather_cases": True, "sweep": True,
               "training_length": True}


def _day(k):
    return f"{date.fromisoformat(START_DAY) + timedelta(days=k)}T00:00:00"


def _synth(days, cloud_days, scenario):
    return {"days": days, "cloud_days": cloud_days, "cloud_depth": 0.55,
            "true_params": TRUE_PARAMS, "scenario": scenario,
            "alpha_isc": DATASHEET["alpha_isc"], "start_day": START_DAY}


def dayahead_rolling():
    """The paper's loop: a warm-started 3-day re-fit and one prediction a day."""
    days = 12
    return {
        "data": {"telemetry": "telemetry.csv"},
        "system": {"topology": TOPOLOGY, "datasheet": DATASHEET},
        "models": ["pvpro"],
        "fit": {"window_days": 3, "warm_start": True},
        "studies": NO_STUDIES,
        "evaluation": {"start": _day(3)},
        "synth": _synth(days, list(range(2, days, 5)),
                        {"r_s": ["linear", 0.3]}),
    }


def roster_studies():
    """Demo-06 shape: six models, every study, an i_ph step fault."""
    days = 8
    return {
        "data": {"telemetry": "telemetry.csv"},
        "system": {"topology": TOPOLOGY, "datasheet": DATASHEET},
        "models": ["pvpro", "smart_persistence", "naive_persistence",
                   "nominal", "lr", "kr"],
        "regressors": {"lambda_grid": [1e-3, 1e-1], "gamma_grid": [0.5, 2.0],
                       "training_lengths_days": [3]},
        "studies": ALL_STUDIES,
        "evaluation": {"start": _day(4)},
        "synth": _synth(days, [1, 3, 6], {"i_ph_ref": ["step", 4, -0.12]}),
    }


def regressor_grid():
    """Regressors only: the default lambda x gamma grid, no physical model."""
    days = 36
    return {
        "data": {"telemetry": "telemetry.csv"},
        "system": {"topology": TOPOLOGY, "p_nominal_w": (
            DATASHEET["v_mp"] * TOPOLOGY["modules_per_string"]
            * DATASHEET["i_mp"] * TOPOLOGY["strings_in_parallel"])},
        "models": ["lr", "kr", "smart_persistence", "naive_persistence"],
        "regressors": {"training_lengths_days": [3, 7, 14, 30]},
        "studies": NO_STUDIES,
        "evaluation": {"start": _day(31)},
        "synth": _synth(days, list(range(2, days, 5)), {}),
    }


WORKLOADS = {
    "dayahead_rolling": dayahead_rolling,
    "roster_studies": roster_studies,
    "regressor_grid": regressor_grid,
}

# reference kernel (see reference.py) that mimics each workload's hot layer
REFERENCE_KERNEL = {
    "dayahead_rolling": "mpp",
    "roster_studies": "mpp",
    "regressor_grid": "kernel_ridge",
}

# layers that must record calls on a workload; zero calls there means a
# target was renamed or bypassed and the layer metrics would silently read 0
_EVERY = ("benchmark.run_benchmark", "iotools.read_telemetry_csv",
          "iotools.write_json", "iotools.write_forecast_csv",
          "analysis.compute_metrics")
_DYNAMIC = ("sdm.mpp_arrays", "sdm.translate_arrays",
            "sdm.open_circuit_diode_voltage_arrays",
            "sdm.simulate_array_mpp_arrays", "fitting.fit_window",
            "fitting.initial_guess", "fitting.simulate_power",
            "baselines.fit_desoto_from_datasheet",
            "preprocess.apply_quality_pipeline", "preprocess.filter_clipping")
_REGRESSORS = ("baselines.grid_search", "baselines.train_regressor",
               "baselines.predict_regressor",
               "preprocess.apply_quality_pipeline",
               "preprocess.filter_clipping")
EXPECTED_CALLS = {
    "dayahead_rolling": _EVERY + _DYNAMIC,
    "roster_studies": _EVERY + _DYNAMIC + _REGRESSORS + (
        "analysis.weather_case_study", "analysis.training_length_sweep",
        "analysis.seasonal_partition", "analysis.interpretability_sweep"),
    "regressor_grid": _EVERY + _REGRESSORS,
}
