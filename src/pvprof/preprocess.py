"""Telemetry quality control ahead of parameter fitting.

Three filters in a fixed order: night removal, inverter-clipping exclusion,
and regression-based outlier removal (straight-line fits of DC current vs
irradiance and DC voltage vs module temperature).  Each filter is a pure
function from a series plus the current mask to an updated mask, so the
pipeline is deterministic and idempotent.  ``training_window`` is the one
training-slice rule: the ``length`` before ``end``, masked on its own.  A
``TrainingWindows`` table applies it once per distinct window of a run, so
every model that trains on a window reads the same slice.
"""

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConfigError, InsufficientDataError
from .series import TelemetrySeries

DEFAULT_G_MIN = 50.0     # W/m^2; below this trackers and sensors are unreliable
DEFAULT_K_SIGMA = 3.0
DEFAULT_CLIP_BAND = 0.005
DEFAULT_CLIP_RUN = 3


@dataclass(frozen=True)
class PreprocessConfig:
    g_min: float = DEFAULT_G_MIN
    k_sigma: float = DEFAULT_K_SIGMA
    clip_band: float = DEFAULT_CLIP_BAND
    clip_run: int = DEFAULT_CLIP_RUN
    p_ac_limit: float | None = None


@dataclass(frozen=True)
class QualityMask:
    """Per-record quality flags; a record is retained iff no flag is set."""

    night: np.ndarray
    clipped: np.ndarray
    outlier_current: np.ndarray
    outlier_voltage: np.ndarray

    @property
    def retained(self):
        return ~(self.night | self.clipped
                 | self.outlier_current | self.outlier_voltage)

    @classmethod
    def clean(cls, n):
        z = np.zeros(n, dtype=bool)
        return cls(z.copy(), z.copy(), z.copy(), z.copy())


def filter_night(series: TelemetrySeries, mask: QualityMask | None = None,
                 g_min=DEFAULT_G_MIN) -> QualityMask:
    """Flag records with irradiance strictly below ``g_min``."""
    if mask is None:
        mask = QualityMask.clean(len(series))
    return replace(mask, night=series.g_poa < g_min)


def filter_clipping(series: TelemetrySeries, mask: QualityMask,
                    p_ac_limit=None, band=DEFAULT_CLIP_BAND,
                    run_min=DEFAULT_CLIP_RUN) -> QualityMask:
    """Flag records where the inverter limits power instead of tracking MPP.

    With a known AC limit, any record at or above 98% of it is flagged.
    Without one, a flat-top plateau is detected per day: at least ``run_min``
    consecutive samples whose power stalls within ``band`` of the running
    daily maximum reached so far while irradiance is still rising.  Each
    detected plateau is then expanded to the whole contiguous region sitting
    within ``band`` of the plateau level, so the falling-irradiance half of a
    clipped midday is flagged as well.
    """
    p = series.power
    if p_ac_limit is not None:
        return replace(mask, clipped=p >= 0.98 * p_ac_limit)

    clipped = np.zeros(len(series), dtype=bool)
    days = series.day_index()
    for day in np.unique(days):
        sel = np.flatnonzero(days == day)
        pd = p[sel]
        gd = series.g_poa[sel]
        prev_max = np.zeros(sel.size)
        prev_max[1:] = np.maximum.accumulate(pd)[:-1]
        rising = np.zeros(sel.size, dtype=bool)
        rising[1:] = gd[1:] > gd[:-1]
        cand = (~mask.night[sel]) & rising & (prev_max > 0) \
            & (pd >= (1.0 - band) * prev_max) & (pd <= (1.0 + band) * prev_max)
        start = None
        for k in range(sel.size + 1):
            on = k < sel.size and cand[k]
            if on and start is None:
                start = k
            elif not on and start is not None:
                if k - start >= run_min:
                    level = float(np.max(pd[start:k]))
                    a, b = start, k
                    while a > 0 and abs(pd[a - 1] - level) <= band * level:
                        a -= 1
                    while b < sel.size and abs(pd[b] - level) <= band * level:
                        b += 1
                    clipped[sel[a:b]] = True
                start = None
    return replace(mask, clipped=clipped)


def _line_fit_outliers(x, y, k_sigma):
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    dof = max(x.size - 2, 1)
    sigma = float(np.sqrt(np.sum(resid ** 2) / dof))
    # a residual spread at float-noise level means the fit is exact
    if sigma <= 1e-9 * (float(np.std(y)) + 1e-30):
        return np.zeros(x.size, dtype=bool)
    return np.abs(resid) > k_sigma * sigma


def remove_outliers_regression(series: TelemetrySeries, mask: QualityMask,
                               k_sigma=DEFAULT_K_SIGMA) -> QualityMask:
    """Flag residual outliers of the two screening regressions.

    Over currently retained records, fits i_dc against g_poa and v_dc against
    t_module by ordinary least squares (one pass, no re-fit) and flags any
    record whose residual exceeds ``k_sigma`` residual standard deviations
    in either regression.
    """
    keep = np.flatnonzero(mask.retained)
    if keep.size < 10:
        raise InsufficientDataError(
            f"outlier regression needs >= 10 retained records, have {keep.size}")
    out_i = np.zeros(len(series), dtype=bool)
    out_v = np.zeros(len(series), dtype=bool)
    out_i[keep] = _line_fit_outliers(series.g_poa[keep], series.i_dc[keep], k_sigma)
    out_v[keep] = _line_fit_outliers(series.t_module[keep], series.v_dc[keep], k_sigma)
    return replace(mask, outlier_current=out_i, outlier_voltage=out_v)


def apply_quality_pipeline(series: TelemetrySeries,
                           config: PreprocessConfig = PreprocessConfig()
                           ) -> QualityMask:
    """Run night -> clipping -> outlier filtering in the fixed order."""
    mask = filter_night(series, g_min=config.g_min)
    mask = filter_clipping(series, mask, p_ac_limit=config.p_ac_limit,
                           band=config.clip_band, run_min=config.clip_run)
    mask = remove_outliers_regression(series, mask, k_sigma=config.k_sigma)
    return mask


def training_window(series: TelemetrySeries, end, length,
                    config: PreprocessConfig):
    """Retained records with ``end - length <= t < end``, masked on their own
    so that no record at or after ``end`` decides which are kept."""
    window = series.slice_time(end - length, end)
    return window.select(apply_quality_pipeline(window, config).retained)


class TrainingWindows:
    """The ``training_window`` slices of one series and configuration, each
    distinct window masked once.

    Two windows are the same when their spans ``[end - length, end)`` are
    equal in whole seconds, the resolution of ``TelemetrySeries.slice_time``.
    A window's outcome is its slice or the ``InsufficientDataError`` its
    masking raises; every reader of a failed window gets that error, raised
    with a fresh traceback.  Keep one table for the slices of one run.
    """

    def __init__(self, series: TelemetrySeries, config: PreprocessConfig):
        self.series = series
        self.config = config
        self._outcomes = {}

    @classmethod
    def of(cls, series: TelemetrySeries, config: PreprocessConfig,
           windows=None):
        """``windows`` if it is a table of ``series`` and ``config``, a new
        table when it is None; raises ``ConfigError`` otherwise."""
        if windows is None:
            return cls(series, config)
        if windows.series is not series or windows.config != config:
            raise ConfigError("the training windows belong to another "
                              "series or preprocessing")
        return windows

    def get(self, end, length):
        """``training_window(series, end, length, config)``, masked on the
        first request of its span."""
        start = end - length
        key = (np.datetime64(start, "s"), np.datetime64(end, "s"))
        outcome = self._outcomes.get(key)
        if outcome is None:
            try:
                outcome = training_window(self.series, end, length,
                                          self.config)
            except InsufficientDataError as exc:
                outcome = exc
            self._outcomes[key] = outcome
        if isinstance(outcome, InsufficientDataError):
            # one error object serves every reader: each raise starts a
            # fresh traceback rather than growing the last
            raise outcome.with_traceback(None)
        return outcome
