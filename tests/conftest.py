import dataclasses

import ghreplay  # noqa: F401  first: it pins BLAS to one thread, which numpy reads as it loads
import numpy as np
import pytest

from ghreplay.climate import PRESETS, ClimateSeries, generate_series
from ghreplay.csvio import COLUMNS
from ghreplay.dataset import Normalizer, Phase, build_samples
from ghreplay.experiment import build_memory_config, build_model_config, paper_spec
from ghreplay.model import predict_batch
from ghreplay.rng import SeededRng
from ghreplay.schema import EXPERIMENT_SCHEMA

# the memory strategies the spec names, in the schema's order
STRATEGIES = EXPERIMENT_SCHEMA["properties"]["memory"]["properties"]["strategy"]["enum"]


def model_config(**changes):
    """The paper preset's model config with ``changes`` applied."""
    return dataclasses.replace(build_model_config(paper_spec()), **changes)


def memory_config(**changes):
    """The paper preset's memory config with ``changes`` applied."""
    return dataclasses.replace(build_memory_config(paper_spec()), **changes)


def add_rows(memory, label, n, input_dim=5, fill=0.5):
    """Append an n-record constant series to ``memory``'s row table under
    ``label``, as a phase of the memory's window length; returns its n
    table rows, to observe as slots (the slot policy reads no window)."""
    offset = memory.add_series(Phase(label, np.full((n, input_dim), fill), np.full((n, 2), fill),
                                     np.arange(n, dtype=np.int64), [], [],
                                     window_len=memory.config.window_len))
    return offset + np.arange(n, dtype=np.int64)


def series_rows(series, rows):
    """The records of ``series`` at ``rows`` (a slice or an index array) as a series."""
    return ClimateSeries(*(getattr(series, name)[rows] for name in COLUMNS))


def lstm_blocks(params):
    """(w, u, b): the input weights (4, H, D), recurrent weights (4, H, H)
    and biases (4, H) of ``params.lstm`` = [w | u | b], per gate in the
    order i, f, o, g, as writable views."""
    hidden = params.lstm.shape[0] // 4
    gates = params.lstm.reshape(4, hidden, -1)
    return gates[:, :, : -hidden - 1], gates[:, :, -hidden - 1 : -1], gates[:, :, -1]


def predict_stack(params, stack):
    """``predict_batch`` on a (B, T, D) stack of windows, laid out as the
    series ``stack.reshape(B * T, D)`` with windows ending at rows
    ``arange(B) * T + T - 1``."""
    batch, steps, dim = np.shape(stack)
    rows = np.arange(batch) * steps + steps - 1
    return predict_batch(params, rows, np.reshape(stack, (batch * steps, dim)), steps)


def build_phase(name, days, seed, window_len=50, test_size=1000):
    """Phase built the same way the experiment layer does, without CSV I/O."""
    rng = SeededRng(seed).split(f"generator/{name}")
    series = generate_series(PRESETS[name], days, rng)
    windows = build_samples(series, name, window_len, Normalizer())
    test_rng = SeededRng(seed).split(f"test-sampling/{name}")
    return Phase.split(windows, test_rng.sample_indices(len(windows), test_size))


@pytest.fixture(scope="session")
def tiny_phases():
    """Two small phases (different greenhouses) for fast trainer tests."""
    return (
        build_phase("GH-A", days=4, seed=11, window_len=10, test_size=100),
        build_phase("GH-C", days=4, seed=11, window_len=10, test_size=100),
    )
