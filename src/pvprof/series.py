"""Columnar time-series containers shared across the library.

Telemetry and forecast series are stored as parallel numpy arrays keyed by
a ``datetime64[s]`` timestamp axis.  Every model predicts a day as a power
array from the day's ``TelemetrySeries`` slice; a ``ForecastSeries`` is
one scored (model, day) row of the report's forecast table.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError

DAY = np.timedelta64(1, "D")


def _as_timestamps(values):
    ts = np.asarray(values, dtype="datetime64[s]")
    if ts.ndim != 1:
        raise DataError("timestamp axis must be one-dimensional")
    return ts


@dataclass
class TelemetrySeries:
    """Production telemetry: irradiance, module temperature, DC voltage/current."""

    timestamp: np.ndarray
    g_poa: np.ndarray
    t_module: np.ndarray
    v_dc: np.ndarray
    i_dc: np.ndarray

    def __post_init__(self):
        self.timestamp = _as_timestamps(self.timestamp)
        for name in ("g_poa", "t_module", "v_dc", "i_dc"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.timestamp.shape:
                raise DataError(f"column {name} does not match timestamp axis")
            setattr(self, name, arr)

    def validate(self):
        if len(self) == 0:
            raise DataError("empty telemetry series")
        if np.any(np.diff(self.timestamp) <= np.timedelta64(0, "s")):
            raise DataError("timestamps not strictly increasing")
        for name in ("g_poa", "t_module", "v_dc", "i_dc"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"non-finite values in column {name}")
        if np.any(self.g_poa < 0):
            raise DataError("negative irradiance values")
        if np.any(self.v_dc < 0):
            raise DataError("negative DC voltage values")
        return self

    def __len__(self):
        return self.timestamp.size

    @property
    def power(self):
        """Instantaneous DC power, W."""
        return self.v_dc * self.i_dc

    def select(self, mask):
        return TelemetrySeries(self.timestamp[mask], self.g_poa[mask],
                               self.t_module[mask], self.v_dc[mask],
                               self.i_dc[mask])

    def slice_time(self, start, end):
        """Records with start <= timestamp < end."""
        lo = np.searchsorted(self.timestamp, np.datetime64(start, "s"), "left")
        hi = np.searchsorted(self.timestamp, np.datetime64(end, "s"), "left")
        return self.select(slice(lo, hi))

    def days(self):
        """Sorted unique calendar days present in the series."""
        return np.unique(self.timestamp.astype("datetime64[D]"))

    def day_index(self):
        """Per-record calendar day."""
        return self.timestamp.astype("datetime64[D]")

    def cadence(self):
        """Median sampling interval."""
        if len(self) < 2:
            raise DataError("cadence undefined for a single record")
        deltas = np.diff(self.timestamp).astype("timedelta64[s]")
        return np.median(deltas.astype(np.int64)).astype("timedelta64[s]")


@dataclass
class ForecastSeries:
    """One model's predicted power for one day beside the measured power."""

    timestamp: np.ndarray
    p_pred: np.ndarray
    model: str
    p_meas: np.ndarray

    def __post_init__(self):
        self.timestamp = _as_timestamps(self.timestamp)
        for name in ("p_pred", "p_meas"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.timestamp.shape:
                raise DataError(f"column {name} does not match timestamp axis")
            setattr(self, name, arr)

    def __len__(self):
        return self.timestamp.size


def require_aligned(ts_a, ts_b, what="series"):
    """Raise DataError unless both timestamp axes are identical."""
    ts_a = _as_timestamps(ts_a)
    ts_b = _as_timestamps(ts_b)
    if ts_a.shape != ts_b.shape or np.any(ts_a != ts_b):
        raise DataError(f"misaligned {what}: timestamp axes differ")
    return ts_a


def hour_of_day(timestamps):
    """Fractional hour of day in [0, 24)."""
    ts = _as_timestamps(timestamps)
    secs = (ts - ts.astype("datetime64[D]")).astype("timedelta64[s]")
    return secs.astype(np.int64) / 3600.0
