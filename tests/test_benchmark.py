"""The benchmark's dynamic model: its days are ``rolling_fit``'s windows."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pvprof import analysis, fitting, synth
from pvprof.benchmark import RunConfig, run_benchmark
from pvprof.exceptions import InsufficientDataError
from pvprof.preprocess import PreprocessConfig, training_window
from conftest import ALPHA_ISC, CELLS, CSI_PARAMS

WINDOW = np.timedelta64(3, "D")


@pytest.mark.parametrize("warm_start", [True, False])
def test_failed_window_is_recorded_and_its_day_skipped(topo, datasheet,
                                                       warm_start):
    # the evaluation starts on the second day, so the first window holds
    # one day of records; the last three days are dark, so the last
    # window holds one day too
    series, _ = synth.generate_dataset(
        CSI_PARAMS, topo, synth.WeatherProfile(days=7, seed=3),
        alpha_isc=ALPHA_ISC)
    days = series.days()
    dark = series.day_index() >= days[-3]
    series = replace(series, **{name: np.where(dark, 0.0,
                                               getattr(series, name))
                                for name in ("g_poa", "v_dc", "i_dc")})
    config = RunConfig.from_dict({
        "system": {"topology": {"cells_in_series": CELLS,
                                "modules_per_string": 12,
                                "strings_in_parallel": 8},
                   "datasheet": {k: getattr(datasheet, k) for k in (
                       "v_oc", "i_sc", "v_mp", "i_mp", "alpha_isc",
                       "beta_voc", "cells_in_series")}},
        "models": ["pvpro"],
        "fit": {"warm_start": warm_start},
        "studies": {"exceedance": False, "sweep": True},
        "evaluation": {"start": str(days[1])}})
    report = run_benchmark(config, series)
    ds = config.datasheet
    guess = fitting.initial_guess(ds)
    first_day, second_day = (d.astype("datetime64[s]") for d in days[1:3])

    # the day is skipped with the window fit's own error
    with pytest.raises(InsufficientDataError) as failure:
        fitting.fit_window(training_window(series, first_day, WINDOW,
                                           PreprocessConfig()),
                           topo, guess, ds)
    assert report.daily["pvpro"][0] == {"day": str(days[1]),
                                        "skipped": str(failure.value)}

    # the window is in the trajectory as rolling_fit records it
    first = report.trajectory[0]
    assert (first.window_start, first.window_end) == (first_day - WINDOW,
                                                      first_day)
    assert first.error == str(failure.value)
    assert not first.converged
    assert math.isnan(first.final_loss)
    assert first.iterations == 0

    # the next window starts from the datasheet guess
    cold = fitting.fit_window(training_window(series, second_day, WINDOW,
                                              PreprocessConfig()),
                              topo, guess, ds)
    second = report.trajectory[1]
    assert second.error is None
    assert second.params == cold.params
    assert (second.final_loss, second.iterations) == (cold.final_loss,
                                                      cold.iterations)

    # the sweep predicts from the last window fit that did not fail
    assert len(report.trajectory) == len(days) - 1
    assert report.trajectory[-1].error is not None
    last_fit = [fit for fit in report.trajectory if fit.error is None][-1]
    expected = analysis.interpretability_sweep(
        last_fit, "g_poa", (0.0, 1000.0), topo=topo, datasheet=ds,
        reference_params=ds.desoto_params)
    np.testing.assert_array_equal(
        report.studies["sweep"]["g_poa"]["curves"]["model"],
        expected.groups["curves"]["model"])
