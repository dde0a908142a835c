import dataclasses
import math

import numpy as np
import pytest

from ghreplay.climate import (
    PRESETS,
    RECORDS_PER_DAY,
    SAMPLE_INTERVAL_S,
    GreenhouseParams,
    generate_series,
    photosynthesis_rate,
    saturation_vapor_pressure,
    transpiration_rate,
    vapor_pressure_deficit,
)
from ghreplay.csvio import COLUMNS
from ghreplay.rng import SeededRng


def test_saturation_vapor_pressure_at_zero():
    # exponent vanishes at T=0, leaving the Magnus prefactor
    assert saturation_vapor_pressure(0.0) == 0.6108


def test_saturation_vapor_pressure_at_20():
    direct = 0.6108 * math.exp(17.27 * 20.0 / (20.0 + 237.3))
    assert saturation_vapor_pressure(20.0) == pytest.approx(direct, rel=1e-12)
    # psychrometric tables give ~2.338-2.339 kPa at 20 degC
    assert saturation_vapor_pressure(20.0) == pytest.approx(2.338, abs=2e-3)


def test_saturation_vapor_pressure_monotone():
    assert saturation_vapor_pressure(30.0) > saturation_vapor_pressure(20.0)
    temps = [saturation_vapor_pressure(t) for t in range(-20, 50, 5)]
    assert all(a < b for a, b in zip(temps, temps[1:]))


def test_saturation_vapor_pressure_domain():
    with pytest.raises(ValueError):
        saturation_vapor_pressure(-240.0)


def test_vpd_saturated_air_is_zero():
    assert vapor_pressure_deficit(20.0, 100.0) == 0.0


def test_vpd_half_saturation():
    assert vapor_pressure_deficit(20.0, 50.0) == pytest.approx(
        saturation_vapor_pressure(20.0) / 2.0, rel=1e-12
    )
    assert vapor_pressure_deficit(20.0, 50.0) == pytest.approx(1.169, abs=1e-3)


def test_vpd_dry_air_at_zero_degrees():
    assert vapor_pressure_deficit(0.0, 0.0) == 0.6108


def test_vpd_rejects_bad_humidity():
    with pytest.raises(ValueError, match="rh"):
        vapor_pressure_deficit(20.0, 101.0)
    with pytest.raises(ValueError, match="rh"):
        vapor_pressure_deficit(20.0, -1.0)


def test_photosynthesis_dark_is_zero():
    assert photosynthesis_rate(0.0, 800.0, PRESETS["GH-A"]) == 0.0


def test_photosynthesis_co2_half_saturation():
    p = PRESETS["GH-A"]
    light_limited = photosynthesis_rate(500.0, 1e12, p)  # co2 factor -> 1
    at_kc = photosynthesis_rate(500.0, p.k_c, p)
    assert at_kc == pytest.approx(light_limited / 2.0, rel=1e-9)


def test_photosynthesis_worked_example():
    p = GreenhouseParams(name="x", p_max=30.0, alpha=0.05, k_c=300.0)
    # 30 * (30/60) * (800/1100) = 120/11
    assert photosynthesis_rate(600.0, 800.0, p) == pytest.approx(120.0 / 11.0, abs=1e-6)


def test_photosynthesis_monotone_grid():
    p = PRESETS["GH-A"]
    rads = [i * 50.0 for i in range(20)]
    co2s = [100.0 + i * 60.0 for i in range(20)]
    for co2 in co2s:
        vals = [photosynthesis_rate(r, co2, p) for r in rads]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v < p.p_max for v in vals)
    for rad in rads:
        vals = [photosynthesis_rate(rad, c, p) for c in co2s]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_transpiration_zero_drivers():
    assert transpiration_rate(0.0, 0.0, PRESETS["GH-A"]) == 0.0


def test_transpiration_worked_example():
    p = GreenhouseParams(name="x", a_rad=3e-4, b_vpd=0.02)
    assert transpiration_rate(500.0, 1.0, p) == pytest.approx(0.17, rel=1e-12)


def test_transpiration_linear_in_radiation():
    p = dataclasses.replace(PRESETS["GH-A"], b_vpd=1e-300)
    one = transpiration_rate(400.0, 0.0, p)
    two = transpiration_rate(800.0, 0.0, p)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_params_validation():
    for kwargs, message in [
        ({"day_length_h": 25.0},
         "GreenhouseParams.day_length_h: 25.0 is greater than or equal to the maximum of 24"),
        ({"i_max": -1.0}, "GreenhouseParams.i_max: -1.0 is less than or equal to the minimum of 0"),
        ({"noise_sd": -0.1}, "GreenhouseParams.noise_sd: -0.1 is less than the minimum of 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            GreenhouseParams(name="bad", **kwargs)


def test_generate_series_shape_and_spacing():
    series = generate_series(PRESETS["GH-A"], days=2, rng=SeededRng(0))
    assert len(series) == 2 * RECORDS_PER_DAY
    assert series.timestamp.dtype == np.int64
    for name in COLUMNS[1:]:
        column = getattr(series, name)
        assert column.dtype == np.float64 and column.shape == (len(series),)
    assert set(np.diff(series.timestamp).tolist()) == {SAMPLE_INTERVAL_S}


def test_generate_series_deterministic():
    a = generate_series(PRESETS["GH-B"], days=1, rng=SeededRng(5))
    b = generate_series(PRESETS["GH-B"], days=1, rng=SeededRng(5))
    for name in COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_generate_series_noise_free_night_photosynthesis():
    params = dataclasses.replace(PRESETS["GH-A"], noise_sd=0.0)
    series = generate_series(params, days=2, rng=SeededRng(1))
    nights = series.radiation == 0.0
    assert nights.any(), "expected nighttime records"
    assert (series.photosynthesis[nights] == 0.0).all()


def test_generate_series_radiation_bounds():
    params = PRESETS["GH-A"]
    series = generate_series(params, days=3, rng=SeededRng(2))
    assert ((0.0 <= series.radiation) & (series.radiation <= params.i_max)).all()
    daytime = series.radiation[series.radiation > 0.0]
    assert 0.0 < daytime.sum() / len(daytime) < params.i_max


def test_generate_series_record_invariants():
    for name in PRESETS:
        series = generate_series(PRESETS[name], days=1, rng=SeededRng(3))
        assert ((0.0 <= series.rh) & (series.rh <= 100.0)).all()
        assert (series.co2 > 0.0).all()
        assert (series.radiation >= 0.0).all()
        assert (series.transpiration >= 0.0).all()
        assert (series.photosynthesis >= 0.0).all()


def test_generate_series_rejects_bad_days():
    with pytest.raises(ValueError, match="days"):
        generate_series(PRESETS["GH-A"], days=0, rng=SeededRng(0))
