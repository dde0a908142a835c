import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import series_rows
from ghreplay.climate import PRESETS, generate_series
from ghreplay.dataset import (
    DEFAULT_INPUT_BOUNDS,
    DEFAULT_TARGET_BOUNDS,
    WINDOW_STRIDE,
    Normalizer,
    build_samples,
    window_count,
)
from ghreplay.rng import SeededRng

IN_LOW, IN_HIGH = DEFAULT_INPUT_BOUNDS[:, 0], DEFAULT_INPUT_BOUNDS[:, 1]
OUT_LOW, OUT_HIGH = DEFAULT_TARGET_BOUNDS[:, 0], DEFAULT_TARGET_BOUNDS[:, 1]


def test_default_bounds_match_configuration():
    assert DEFAULT_INPUT_BOUNDS.dtype == DEFAULT_TARGET_BOUNDS.dtype == np.float64
    assert DEFAULT_INPUT_BOUNDS.tolist() == [
        [0.0, 50.0],
        [0.0, 100.0],
        [0.0, 1200.0],
        [0.0, 2000.0],
        [0.0, 50.0],
    ]
    assert DEFAULT_TARGET_BOUNDS.tolist() == [[0.0, 5.0], [0.0, 50.0]]
    for bounds in (DEFAULT_INPUT_BOUNDS, DEFAULT_TARGET_BOUNDS):
        with pytest.raises(ValueError):
            bounds[0, 1] = 1.0


def test_normalize_endpoints_and_midpoint():
    n = Normalizer()
    lows = n.normalize(IN_LOW[None, :], DEFAULT_INPUT_BOUNDS)
    highs = n.normalize(IN_HIGH[None, :], DEFAULT_INPUT_BOUNDS)
    mids = n.normalize(((IN_LOW + IN_HIGH) / 2.0)[None, :], DEFAULT_INPUT_BOUNDS)
    assert np.array_equal(lows, np.zeros((1, 5)))
    assert np.array_equal(highs, np.ones((1, 5)))
    assert np.allclose(mids, 0.5)
    assert n.clamp_count == 0


@settings(max_examples=200, deadline=None)
@given(
    frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    feature=st.integers(min_value=0, max_value=4),
)
def test_normalize_roundtrip_in_range(frac, feature):
    n = Normalizer()
    low, high = IN_LOW[feature], IN_HIGH[feature]
    value = low + frac * (high - low)
    row = ((IN_LOW + IN_HIGH) / 2.0).copy()
    row[feature] = value
    out = n.normalize(row[None, :], DEFAULT_INPUT_BOUNDS)
    assert out[0, feature] == (value - low) / (high - low)
    assert n.clamp_count == 0


def test_roundtrip_thousand_random_values():
    n = Normalizer()
    rng = SeededRng(21)
    values = np.array(
        [
            [IN_LOW[j] + rng.random() * (IN_HIGH[j] - IN_LOW[j]) for j in range(5)]
            for _ in range(1000)
        ]
    )
    out = n.normalize(values, DEFAULT_INPUT_BOUNDS)
    for j in range(5):
        low, high = IN_LOW[j], IN_HIGH[j]
        assert all(out[r, j] == (values[r, j] - low) / (high - low) for r in range(1000))
    assert n.clamp_count == 0


def test_clamping_is_counted():
    n = Normalizer()
    out = n.normalize(np.array([[-5.0, 120.0, 600.0, 500.0, 10.0]]), DEFAULT_INPUT_BOUNDS)
    assert n.clamp_count == 2
    assert out[0, 0] == 0.0 and out[0, 1] == 1.0
    n.normalize(np.array([[10.0, 10.0]]), DEFAULT_TARGET_BOUNDS)
    assert n.clamp_count == 3


def test_no_clamping_on_generated_data():
    n = Normalizer()
    for name in PRESETS:
        series = generate_series(PRESETS[name], days=2, rng=SeededRng(4))
        build_samples(series, name, 20, n)
    assert n.clamp_count == 0


def test_window_count_examples():
    assert window_count(250, 250, 2) == 1
    assert window_count(254, 250, 2) == 3
    assert window_count(249, 250, 2) == 0


def test_window_count_closed_form_random_triples():
    rng = SeededRng(22)
    for _ in range(50):
        n = rng.randbelow(2000) + 1
        window_len = rng.randbelow(300) + 1
        stride = rng.randbelow(10) + 1
        expected = (n - window_len) // stride + 1 if n >= window_len else 0
        assert window_count(n, window_len, stride) == expected


def test_build_samples_counts_match_formula():
    series = generate_series(PRESETS["GH-A"], days=1, rng=SeededRng(5))
    rng = SeededRng(23)
    for _ in range(10):
        window_len = rng.randbelow(100) + 1
        samples = build_samples(series, "GH-A", window_len, Normalizer())
        assert len(samples) == window_count(len(series), window_len, WINDOW_STRIDE)


def test_build_samples_contiguous_targets_from_final_record():
    series = generate_series(PRESETS["GH-A"], days=1, rng=SeededRng(6))
    n = Normalizer()
    windows = build_samples(series, "GH-A", window_len=12, normalizer=n)
    assert windows.window_len == 12
    for w_idx, end in enumerate(windows.stream.tolist()):
        start = w_idx * WINDOW_STRIDE
        assert end == start + 11
        assert windows.timestamps[end] == series.timestamp[end]
        window = windows.inputs[end - 11 : end + 1]
        assert window.shape == (12, 5)
        assert windows.targets[end, 0] == (series.transpiration[end] - OUT_LOW[0]) / (OUT_HIGH[0] - OUT_LOW[0])
        assert windows.targets[end, 1] == (series.photosynthesis[end] - OUT_LOW[1]) / (OUT_HIGH[1] - OUT_LOW[1])
        assert window[0, 0] == (series.t_air[start] - IN_LOW[0]) / (IN_HIGH[0] - IN_LOW[0])


def test_build_samples_too_short_series():
    series = generate_series(PRESETS["GH-A"], days=1, rng=SeededRng(7))
    windows = build_samples(series_rows(series, slice(5)), "GH-A", window_len=6, normalizer=Normalizer())
    assert len(windows) == 0 and windows.stream.shape == (0,)


def test_build_samples_normalized_and_labeled():
    series = generate_series(PRESETS["GH-B"], days=1, rng=SeededRng(8))
    windows = build_samples(series, "GH-B", 25, Normalizer())
    assert len(windows) == window_count(len(series), 25, WINDOW_STRIDE)
    assert windows.label == "GH-B"
    assert windows.inputs.shape == (len(series), 5)
    assert windows.targets.shape == (len(series), 2)
    assert (windows.inputs >= 0.0).all() and (windows.inputs <= 1.0).all()
    assert (windows.targets >= 0.0).all() and (windows.targets <= 1.0).all()
    assert (np.diff(windows.stream) == WINDOW_STRIDE).all() and windows.stream[0] == 24


def test_build_samples_streams_every_window():
    series = generate_series(PRESETS["GH-A"], days=1, rng=SeededRng(10))
    phase = build_samples(series, "GH-A", 20, Normalizer())
    assert len(phase) == len(phase.stream) == window_count(len(series), 20, WINDOW_STRIDE)
    assert phase.stream.tolist() == list(range(19, len(series), WINDOW_STRIDE))
    assert phase.test_set.shape == (0,) and phase.window_len == 20


def test_build_samples_views_are_readonly():
    series = generate_series(PRESETS["GH-A"], days=1, rng=SeededRng(9))
    windows = build_samples(series, "GH-A", 10, Normalizer())
    for arr in (windows.inputs, windows.targets, windows.timestamps):
        with pytest.raises(ValueError):
            arr[0] = 2
