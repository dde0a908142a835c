"""Synthetic greenhouse climate series and the crop responses they embody.

Each greenhouse is a parameter set driving a clipped half-sine diurnal
radiation curve with air temperature, humidity, CO2 and leaf temperature
coupled to it. Transpiration and photosynthesis are derived from simple
physiological response forms; those response functions double as the
ground truth that the learned model is scored against. Real recordings
can replace the generator through the CSV reader, as long as they follow
the same column schema and 5-minute sampling.

A series is held as columns, not as one object per record: a
``ClimateSeries`` has an int64 ``timestamp`` array and one float64 array
per measured field, and ``len()`` is its record count. The generator
computes the noise-free climate, which depends only on the time of day,
once per 5-minute slot of a day with scalar ``math`` code and repeats it
for every day. It draws the noise of the whole series as one block of
truncated normals (``SeededRng.truncated_normals``, the values of a
scalar Box-Muller loop) and applies it with array arithmetic in the
scalar order of operations, so a series has the bits a record-by-record
loop gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import SeededRng
from .schema import _GREENHOUSE_PARAMS_SCHEMA, check_fields

SAMPLE_INTERVAL_S = 300
RECORDS_PER_DAY = 86400 // SAMPLE_INTERVAL_S  # 288


@dataclass(eq=False)
class ClimateSeries:
    """5-minute measurements as columns: five inputs and the two target rates."""

    timestamp: np.ndarray       # int64, seconds since epoch
    t_air: np.ndarray           # degC
    rh: np.ndarray              # percent, 0..100
    radiation: np.ndarray       # W/m^2
    co2: np.ndarray             # ppm
    t_leaf: np.ndarray          # degC
    transpiration: np.ndarray   # g/m^2/min
    photosynthesis: np.ndarray  # umol/m^2/s

    def __len__(self) -> int:
        return len(self.timestamp)


@dataclass
class GreenhouseParams:
    """Knobs that give one greenhouse its own dynamics.

    Two houses with nearby parameters produce similar input-output
    mappings; shifting i_max, b_vpd or the CO2 setpoints produces the
    domain shift the transfer experiments rely on. The field defaults are
    GH-A's values, and the base of every custom greenhouse, whose
    ``params`` adjust them.
    """

    name: str
    i_max: float = 800.0        # W/m^2, peak transmitted radiation
    alpha: float = 0.05         # umol/J, light-use slope
    p_max: float = 30.0         # umol/m^2/s, light-saturated photosynthesis
    k_c: float = 300.0          # ppm, CO2 half-saturation
    a_rad: float = 3e-4         # transpiration per W/m^2
    b_vpd: float = 0.02         # transpiration per kPa
    t_base: float = 21.0        # degC, nighttime mean air temperature
    t_amp: float = 8.0          # degC, diurnal amplitude
    co2_day: float = 450.0      # ppm, daytime setpoint (drawdown)
    co2_night: float = 650.0    # ppm, nighttime setpoint
    noise_sd: float = 0.03      # relative noise level
    day_length_h: float = 14.0  # hours of daylight

    SCHEMA = _GREENHOUSE_PARAMS_SCHEMA["properties"]

    def __post_init__(self) -> None:
        check_fields(self, self.SCHEMA)


# GH-A and GH-B differ mildly (a_rad, p_max); GH-C is a strong shift
# (lower light peak, higher VPD response, different setpoints).
PRESETS: dict[str, GreenhouseParams] = {
    "GH-A": GreenhouseParams(name="GH-A"),
    "GH-B": GreenhouseParams(name="GH-B", a_rad=3.3e-4, p_max=27.0),
    "GH-C": GreenhouseParams(
        name="GH-C",
        i_max=560.0,
        b_vpd=0.028,
        t_base=24.0,
        t_amp=10.0,
        co2_day=550.0,
        co2_night=800.0,
        day_length_h=12.0,
    ),
}


def saturation_vapor_pressure(t_air: float) -> float:
    """Magnus form e_s(T) = 0.6108 * exp(17.27 T / (T + 237.3)), in kPa."""
    if t_air <= -237.3:
        raise ValueError(f"saturation_vapor_pressure: t={t_air} out of range")
    return 0.6108 * math.exp(17.27 * t_air / (t_air + 237.3))


def vapor_pressure_deficit(t_air: float, rh: float) -> float:
    """VPD = e_s(T) * (1 - RH/100), in kPa."""
    if not 0.0 <= rh <= 100.0:
        raise ValueError(f"vapor_pressure_deficit: rh={rh} outside [0, 100]")
    return saturation_vapor_pressure(t_air) * (1.0 - rh / 100.0)


def photosynthesis_rate(radiation: float, co2: float, p: GreenhouseParams) -> float:
    """Rectangular-hyperbola light response scaled by CO2 saturation.

    P = p_max * (alpha I) / (alpha I + p_max) * co2 / (co2 + k_c); zero in
    darkness, below p_max always, monotone in both drivers.
    """
    if radiation < 0:
        raise ValueError(f"photosynthesis_rate: radiation={radiation} < 0")
    if co2 <= 0:
        raise ValueError(f"photosynthesis_rate: co2={co2} <= 0")
    light = p.alpha * radiation
    return p.p_max * light / (light + p.p_max) * co2 / (co2 + p.k_c)


def transpiration_rate(radiation: float, vpd: float, p: GreenhouseParams) -> float:
    """Linear radiation + VPD response: E = a_rad I + b_vpd VPD."""
    if radiation < 0:
        raise ValueError(f"transpiration_rate: radiation={radiation} < 0")
    if vpd < 0:
        raise ValueError(f"transpiration_rate: vpd={vpd} < 0")
    return p.a_rad * radiation + p.b_vpd * vpd


def _humidity(delta_t):
    """Relative humidity falling with warming, clamped to [20, 100]; elementwise on arrays."""
    return np.clip(85.0 - 2.5 * delta_t, 20.0, 100.0)


def generate_series(
    p: GreenhouseParams,
    days: int,
    rng: SeededRng,
) -> ClimateSeries:
    """Generate `days` of 5-minute records from timestamp 0, deterministic
    per (params, seed).

    Targets are computed from the noise-free climate and then perturbed by
    multiplicative Gaussian noise (relative sd = noise_sd, truncated at
    3 sigma); air temperature carries additive noise on the same relative
    scale, and humidity/leaf temperature follow the noisy temperature.
    Each record draws three noise values in the order temperature,
    transpiration, photosynthesis.
    """
    if days < 1:
        raise ValueError(f"generate_series: days must be >= 1, got {days}")

    # the noise-free climate of each 5-minute slot of a day
    sunrise = 12.0 - p.day_length_h / 2.0
    clean = []
    for k in range(RECORDS_PER_DAY):
        hour = k * SAMPLE_INTERVAL_S / 3600.0
        phase = (hour - sunrise) / p.day_length_h
        radiation = p.i_max * math.sin(math.pi * phase) if 0.0 < phase < 1.0 else 0.0
        radiation = max(0.0, radiation)
        rel = radiation / p.i_max
        t_clean = p.t_base + p.t_amp * rel
        rh_clean = _humidity(t_clean - p.t_base)
        co2 = p.co2_night + (p.co2_day - p.co2_night) * rel
        transp = transpiration_rate(radiation, vapor_pressure_deficit(t_clean, rh_clean), p)
        photo = photosynthesis_rate(radiation, co2, p)
        clean.append((radiation, rel, t_clean, co2, transp, photo))
    radiation, rel, t_clean, co2, transp, photo = np.tile(np.array(clean).T, days)

    n = days * RECORDS_PER_DAY
    t_noise, transp_noise, photo_noise = rng.truncated_normals(3 * n).reshape(n, 3).T
    t_air = t_clean + p.noise_sd * p.t_amp * t_noise
    return ClimateSeries(
        timestamp=SAMPLE_INTERVAL_S * np.arange(n, dtype=np.int64),
        t_air=t_air,
        rh=_humidity(t_air - p.t_base),
        radiation=radiation,
        co2=co2,
        t_leaf=t_air + 0.1 * rel,
        transpiration=transp * (1.0 + p.noise_sd * transp_noise),
        photosynthesis=photo * (1.0 + p.noise_sd * photo_noise),
    )
