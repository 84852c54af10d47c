"""Synthetic plant generator with known ground truth.

Produces clear-sky irradiance, optional seeded cloud transients, a module
temperature surrogate, and MPP telemetry simulated from known single-diode
parameters (optionally drifting or stepping over time).  Every dataset is a
pure function of its inputs and seed, and ships with a ground-truth log that
is sufficient to recompute everything that was injected.
"""

import math
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .exceptions import ConfigError, finite_number, whole_number
from .sdm import (PARAM_BOX, PARAM_NAMES, ArrayTopology, SdmParamsRef,
                  simulate_array_mpp_arrays)
from .series import TelemetrySeries

SHAPE_EXPONENT = 1.2          # clear-sky shoulder steepness
NOCT_RISE_C = 28.0            # module heating at 800 W/m^2
NOCT_G = 800.0
AMBIENT_SWING_C = 5.0
AMBIENT_PEAK_HOUR = 14.0      # two hours after solar noon
SOLAR_NOON_HOUR = 12.0


@dataclass(frozen=True)
class WeatherProfile:
    """Synthetic weather description; ``seed`` drives every random element.
    Each setting is read by ``whole_number`` or ``finite_number``, in range."""

    days: int
    cadence_minutes: int = 15
    peak_irradiance: float = 1000.0
    day_length_hours: float = 12.0
    cloud_days: tuple = ()
    cloud_depth: float = 0.5
    cloud_timescale_minutes: float = 30.0
    ambient_base: float = 20.0
    seed: int = 0
    start_day: str = "2024-06-01"

    def __post_init__(self):
        for name in ("days", "cadence_minutes"):
            object.__setattr__(self, name, whole_number(getattr(self, name),
                                                        f"synth.{name}"))
        if (24 * 60) % self.cadence_minutes != 0:
            raise ConfigError("synth.cadence_minutes must divide 24 hours")
        for name, ok, rule in (
                ("peak_irradiance", lambda v: v > 0, "> 0"),
                ("day_length_hours", lambda v: 0 < v <= 24, "in (0, 24]"),
                ("cloud_depth", lambda v: 0 <= v <= 1, "in [0, 1]"),
                ("cloud_timescale_minutes", lambda v: v > 0, "> 0"),
                ("ambient_base", lambda v: True, "any value")):
            value = finite_number(getattr(self, name), f"synth.{name}")
            if not ok(value):
                raise ConfigError(f"synth.{name} must be finite and {rule}, "
                                  f"got {value!r}")
            object.__setattr__(self, name, value)
        days = self.cloud_days
        if not isinstance(days, (list, tuple)):
            raise ConfigError(f"synth.cloud_days must be a list, got {days!r}")
        object.__setattr__(self, "cloud_days", tuple(whole_number(
            d, "synth.cloud_days", low=0, high=self.days - 1) for d in days))
        if not _is_date(self.start_day):
            raise ConfigError(f"synth.start_day must be a date (YYYY-MM-DD), "
                              f"got {self.start_day!r}")

    @property
    def samples_per_day(self):
        return 24 * 60 // self.cadence_minutes

    def timestamps(self):
        n = self.days * self.samples_per_day
        start = np.datetime64(self.start_day, "s")
        return start + np.arange(n) * np.timedelta64(self.cadence_minutes * 60, "s")

    def hours_of_day(self):
        n = self.days * self.samples_per_day
        return (np.arange(n) % self.samples_per_day) * (self.cadence_minutes / 60.0)


def _is_date(text):
    """Whether ``text`` is a ``YYYY-MM-DD`` string (not ``"today"``)."""
    try:
        return date.fromisoformat(text).isoformat() == text
    except (TypeError, ValueError):
        return False


def clear_sky_profile(profile: WeatherProfile):
    """Deterministic clear-sky irradiance: sin^1.2 arc centered on solar noon."""
    h = profile.hours_of_day()
    sunrise = SOLAR_NOON_HOUR - profile.day_length_hours / 2.0
    x = (h - sunrise) / profile.day_length_hours
    s = np.sin(np.pi * np.clip(x, 0.0, 1.0))
    g = profile.peak_irradiance * np.maximum(s, 0.0) ** SHAPE_EXPONENT
    g[(x <= 0.0) | (x >= 1.0)] = 0.0
    return profile.timestamps(), g


def _day_rng(seed, stream, day_index):
    # per-day child seed; days can be generated independently
    return np.random.default_rng(np.random.SeedSequence((seed, stream, day_index)))


def apply_clouds(g, profile: WeatherProfile):
    """Attenuate cloud days by a smooth seeded factor in [1 - depth, 1].

    The attenuation is a Gaussian AR(1) process with the configured
    correlation time mapped through the normal CDF, so its bounds hold
    exactly.  Returns the attenuated irradiance and per-day labels.
    """
    # imported here: only cloud days need it, and importing pvprof should
    # not load scipy.special
    from scipy.special import ndtr

    g = np.array(g, dtype=float)
    spd = profile.samples_per_day
    labels = []
    cloud_set = set(profile.cloud_days)
    rho = math.exp(-profile.cadence_minutes / profile.cloud_timescale_minutes)
    for day in range(profile.days):
        if day not in cloud_set or profile.cloud_depth == 0.0:
            labels.append("clear")
            continue
        labels.append("cloudy")
        rng = _day_rng(profile.seed, 1, day)
        eps = rng.standard_normal(spd)
        z = np.empty(spd)
        z[0] = eps[0]
        for k in range(1, spd):
            z[k] = rho * z[k - 1] + math.sqrt(1.0 - rho * rho) * eps[k]
        attenuation = 1.0 - profile.cloud_depth * ndtr(z)
        g[day * spd:(day + 1) * spd] *= attenuation
    return g, labels


def module_temperature(timestamps, g, profile: WeatherProfile):
    """Module temperature surrogate: daily ambient sinusoid plus NOCT-style rise."""
    del timestamps  # the profile's own day grid fixes the phase
    h = profile.hours_of_day()
    ambient = profile.ambient_base + AMBIENT_SWING_C * np.cos(
        2.0 * np.pi * (h - AMBIENT_PEAK_HOUR) / 24.0)
    return ambient + np.asarray(g, dtype=float) / NOCT_G * NOCT_RISE_C


@dataclass(frozen=True)
class DegradationScenario:
    """Per-parameter trajectories: constant, linear drift, or a step change.

    ``trajectories`` maps a parameter name to its spec, ``("linear",
    total_rel_change)`` or ``("step", day, rel_change)``; a JSON array reads
    the same.  The constructor checks each spec's kind and length and keeps
    its numbers as floats.  Relative changes multiply the base parameter; a
    linear drift reaches its total relative change at the end of the
    generated span.
    """

    trajectories: dict = field(default_factory=dict)

    @classmethod
    def none(cls):
        return cls({})

    @classmethod
    def linear(cls, **total_rel_change):
        return cls({k: ("linear", v) for k, v in total_rel_change.items()})

    @classmethod
    def step(cls, param, day, rel_change):
        return cls({param: ("step", day, rel_change)})

    def __post_init__(self):
        if not isinstance(self.trajectories, dict):
            raise ConfigError(f"synth.scenario must map parameter names to "
                              f"specs, got {self.trajectories!r}")
        specs = {}
        for name, spec in self.trajectories.items():
            kind = spec[0] if isinstance(spec, (list, tuple)) and spec else None
            if name not in PARAM_NAMES:
                raise ConfigError(f"unknown synth.scenario parameter {name!r}")
            if not (isinstance(kind, str)
                    and len(spec) == {"linear": 2, "step": 3}.get(kind)):
                raise ConfigError(f"synth.scenario.{name} must be ['linear', "
                                  f"total_rel_change] or ['step', day, "
                                  f"rel_change], got {spec!r}")
            specs[name] = (kind, *(finite_number(v, f"synth.scenario.{name}")
                                   for v in spec[1:]))
        object.__setattr__(self, "trajectories", specs)

    def factor(self, name, day_float, total_days):
        traj = self.trajectories.get(name)
        if traj is None:
            return np.ones_like(np.asarray(day_float, dtype=float))
        d = np.asarray(day_float, dtype=float)
        if traj[0] == "linear":
            return 1.0 + traj[1] * d / total_days
        return np.where(d >= traj[1], 1.0 + traj[2], 1.0)

    def params_at(self, base: SdmParamsRef, day_float, total_days):
        """Parameter value arrays along the trajectory."""
        return {name: getattr(base, name) * self.factor(name, day_float, total_days)
                for name in PARAM_NAMES}

    def describe(self):
        return {k: list(v) for k, v in self.trajectories.items()}


def _check_trajectory_bounds(values):
    for name, (lo, hi) in PARAM_BOX.items():
        arr = values[name]
        if np.any(arr < lo) or np.any(arr > hi):
            raise ConfigError(
                f"scenario drives {name} outside [{lo}, {hi}]")
    if np.any(values["i_ph_ref"] <= 0):
        raise ConfigError("scenario drives i_ph_ref non-positive")
    if np.any(values["i_0_ref"] >= values["i_ph_ref"]):
        raise ConfigError("scenario drives i_0_ref above i_ph_ref")


@dataclass
class GroundTruthLog:
    """Everything injected into a generated dataset, by day."""

    start_day: str
    days: int
    cadence_minutes: int
    seed: int
    topology: tuple
    noise_v: float
    noise_i: float
    alpha_isc: float
    base_params: dict
    scenario: dict
    day_params: list
    day_labels: list

    def to_json_dict(self):
        return {
            "start_day": self.start_day, "days": self.days,
            "cadence_minutes": self.cadence_minutes, "seed": self.seed,
            "topology": list(self.topology), "noise_v": self.noise_v,
            "noise_i": self.noise_i, "alpha_isc": self.alpha_isc,
            "base_params": self.base_params, "scenario": self.scenario,
            "day_params": self.day_params, "day_labels": self.day_labels,
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["start_day"], d["days"], d["cadence_minutes"], d["seed"],
                   tuple(d["topology"]), d["noise_v"], d["noise_i"],
                   d["alpha_isc"], d["base_params"], d["scenario"],
                   d["day_params"], d["day_labels"])


def generate_dataset(true_params: SdmParamsRef, topo: ArrayTopology,
                     profile: WeatherProfile,
                     scenario: DegradationScenario | None = None,
                     noise_v=0.005, noise_i=0.005, alpha_isc=0.0):
    """Simulate MPP telemetry from known parameters.

    Returns a :class:`TelemetrySeries` plus the :class:`GroundTruthLog`.
    Voltage and current get independent multiplicative Gaussian noise with
    per-day seeds derived from the profile seed.
    """
    scenario = scenario or DegradationScenario.none()
    ts, g_clear = clear_sky_profile(profile)
    g, labels = apply_clouds(g_clear, profile)
    t_mod = module_temperature(ts, g, profile)

    spd = profile.samples_per_day
    day_float = np.arange(ts.size) / spd
    values = scenario.params_at(true_params, day_float, profile.days)
    _check_trajectory_bounds(values)

    v_dc, i_dc, _, _ = simulate_array_mpp_arrays(
        values["i_ph_ref"], values["i_0_ref"], values["r_s"],
        values["r_sh_ref"], values["n_diode"], g, t_mod, topo, alpha_isc)

    v_noisy = v_dc.copy()
    i_noisy = i_dc.copy()
    if noise_v > 0 or noise_i > 0:
        for day in range(profile.days):
            rng = _day_rng(profile.seed, 2, day)
            sl = slice(day * spd, (day + 1) * spd)
            v_noisy[sl] = v_dc[sl] * (1.0 + noise_v * rng.standard_normal(spd))
            i_noisy[sl] = i_dc[sl] * (1.0 + noise_i * rng.standard_normal(spd))

    series = TelemetrySeries(ts, g, t_mod, v_noisy, i_noisy).validate()

    day_edges = np.arange(profile.days, dtype=float)
    per_day = scenario.params_at(true_params, day_edges, profile.days)
    day_params = [{name: float(per_day[name][d]) for name in PARAM_NAMES}
                  for d in range(profile.days)]
    log = GroundTruthLog(
        start_day=profile.start_day, days=profile.days,
        cadence_minutes=profile.cadence_minutes, seed=profile.seed,
        topology=(topo.cells_in_series, topo.modules_per_string,
                  topo.strings_in_parallel),
        noise_v=noise_v, noise_i=noise_i, alpha_isc=alpha_isc,
        base_params={n: getattr(true_params, n) for n in PARAM_NAMES},
        scenario=scenario.describe(),
        day_params=day_params, day_labels=labels)
    return series, log
