"""Telemetry quality control ahead of parameter fitting.

Three filters in a fixed order: night removal, inverter-clipping exclusion,
and regression-based outlier removal (straight-line fits of DC current vs
irradiance and DC voltage vs module temperature).  Each filter is a pure
function from a series plus the current mask to an updated mask, so the
pipeline is deterministic and idempotent.  The filters work on whole
arrays: the clipping scan finds every day's plateau candidates at once,
and the screening lines are closed-form least-squares fits, where a flat
regressor (a stuck sensor) gets the mean line.  ``training_window`` is the
one training-slice rule: the ``length`` before ``end``, masked on its own.  A
``TrainingWindows`` table applies it once per distinct window of a run, so
every model that trains on a window reads the same slice.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConfigError, InsufficientDataError
from .series import TelemetrySeries

DEFAULT_G_MIN = 50.0     # W/m^2; below this trackers and sensors are unreliable
DEFAULT_K_SIGMA = 3.0
DEFAULT_CLIP_BAND = 0.005
DEFAULT_CLIP_RUN = 3
_EPS = float(np.finfo(float).eps)


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

    The candidates of every day come from array operations on one grid of
    days by records (the timestamps increase, so a day's records are
    contiguous); only the plateaus found are expanded one record at a time.
    """
    p = series.power
    if p_ac_limit is not None:
        return replace(mask, clipped=p >= 0.98 * p_ac_limit)

    n = len(series)
    clipped = np.zeros(n, dtype=bool)
    if n == 0:
        return replace(mask, clipped=clipped)
    days = series.day_index()
    # True at each day's first record and at n, so ``bounds`` holds the
    # start of every day followed by n
    new_day = np.empty(n + 1, dtype=bool)
    new_day[0] = new_day[n] = True
    np.not_equal(days[1:], days[:-1], out=new_day[1:n])
    bounds = new_day.nonzero()[0]
    first = new_day[:n]
    day = first.cumsum() - 1
    pos = np.arange(n) - bounds[day]
    # the running maximum of each day's power before each record: 0 at a
    # day's first record, whose column -1 reads the row's padding
    grid = np.full((bounds.size - 1, (bounds[1:] - bounds[:-1]).max()),
                   -np.inf)
    grid[day, pos] = p
    prev_max = np.maximum.accumulate(grid, axis=1)[day, pos - 1]
    prev_max[first] = 0.0
    rising = np.zeros(n, dtype=bool)
    np.greater(series.g_poa[1:], series.g_poa[:-1], out=rising[1:])
    # prev_max is 0 at a day's first record, which is then no candidate,
    # so no run spans two days; ``cand`` is padded with False at both ends
    cand = np.zeros(n + 2, dtype=bool)
    cand[1:-1] = (~mask.night) & rising & (prev_max > 0) \
        & (p >= (1.0 - band) * prev_max) & (p <= (1.0 + band) * prev_max)
    edges = (cand[1:] != cand[:-1]).nonzero()[0]
    for start, end in zip(edges[0::2], edges[1::2]):
        if end - start < run_min:
            continue
        level = float(np.max(p[start:end]))
        a, b = start, end
        lo, hi = bounds[day[start]], bounds[day[start] + 1]
        while a > lo and abs(p[a - 1] - level) <= band * level:
            a -= 1
        while b < hi and abs(p[b] - level) <= band * level:
            b += 1
        clipped[a:b] = True
    return replace(mask, clipped=clipped)


def _line_fit_outliers(x, y, k_sigma):
    # the least-squares line of y on x, centred on the means.  x is flat
    # when polyfit would call the fit rank-deficient: its ratio of singular
    # values, about sqrt(sxx/sum(x^2))/2, is under n*eps
    n = x.size
    x_mean = float(x.sum()) / n
    dx = x - x_mean
    dy = y - float(y.sum()) / n
    sxx = float(dx @ dx)
    flat = sxx <= (2.0 * n * _EPS) ** 2 * (sxx + n * x_mean * x_mean)
    resid = dy if flat else dy - float(dx @ dy) / sxx * dx
    dof = max(n - 2, 1)
    sigma = math.sqrt(float(resid @ resid) / dof)
    # a residual spread at float-noise level means the fit is exact
    if sigma <= 1e-9 * (math.sqrt(float(dy @ dy) / n) + 1e-30):
        return np.zeros(n, dtype=bool)
    return np.abs(resid) > k_sigma * sigma


def remove_outliers_regression(series: TelemetrySeries, mask: QualityMask,
                               k_sigma=DEFAULT_K_SIGMA) -> QualityMask:
    """Flag residual outliers of the two screening regressions.

    Over currently retained records, fits i_dc against g_poa and v_dc against
    t_module by ordinary least squares (one pass, no re-fit) and flags any
    record whose residual exceeds ``k_sigma`` residual standard deviations
    (n - 2 degrees of freedom) in either regression.  Each line is the
    closed-form fit centred on the means.  A regressor that is flat (a
    stuck sensor, or a spread below the rank cut of ``np.polyfit``: the
    ratio of singular values under n*eps) gets the mean line, slope 0,
    which is polyfit's minimum-norm fit.  A residual spread below 1e-9 of
    the response's standard deviation means an exact fit: nothing is
    flagged.
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
