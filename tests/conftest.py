import ghreplay  # noqa: F401  first: it pins BLAS to one thread, which numpy reads as it loads
import numpy as np
import pytest

from ghreplay.climate import PRESETS, ClimateSeries, generate_series
from ghreplay.csvio import COLUMNS
from ghreplay.dataset import Normalizer, Phase, build_samples
from ghreplay.model import predict_batch
from ghreplay.rng import SeededRng


def add_rows(memory, label, n, input_dim=5, fill=0.5):
    """Append an n-record constant series to ``memory``'s row table under
    ``label``; returns its n table rows, to observe as window ends."""
    offset = memory.add_series(Phase(label, np.full((n, input_dim), fill), np.full((n, 2), fill),
                                     np.arange(n, dtype=np.int64), [], [], window_len=1))
    return offset + np.arange(n, dtype=np.int64)


def series_rows(series, rows):
    """The records of ``series`` at ``rows`` (a slice or an index array) as a series."""
    return ClimateSeries(*(getattr(series, name)[rows] for name in COLUMNS))


def predict_stack(params, stack, **kwargs):
    """``predict_batch`` on a (B, T, D) stack of windows, laid out as the
    series ``stack.reshape(B * T, D)`` with windows ending at rows
    ``arange(B) * T + T - 1``."""
    batch, steps, dim = np.shape(stack)
    rows = np.arange(batch) * steps + steps - 1
    return predict_batch(params, rows, np.reshape(stack, (batch * steps, dim)), steps, **kwargs)


def build_phase(name, days, seed, window_len=50, stride=2, test_size=1000):
    """Phase built the same way the experiment layer does, without CSV I/O."""
    rng = SeededRng(seed).split(f"generator/{name}")
    series = generate_series(PRESETS[name], days, rng)
    windows = build_samples(series, name, window_len, stride, Normalizer())
    test_rng = SeededRng(seed).split(f"test-sampling/{name}")
    return Phase.split(windows, test_rng.sample_indices(len(windows), test_size))


@pytest.fixture(scope="session")
def tiny_phases():
    """Two small phases (different greenhouses) for fast trainer tests."""
    return (
        build_phase("GH-A", days=4, seed=11, window_len=10, stride=2, test_size=100),
        build_phase("GH-C", days=4, seed=11, window_len=10, stride=2, test_size=100),
    )
