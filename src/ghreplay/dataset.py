"""Windowing and fixed-range normalization of climate series.

A sample is a sliding window over the series: the model input is the
window's normalized feature rows and the target is the (transpiration,
photosynthesis) pair at the window's *final* timestep, which keeps the
prediction task causal.

Windows are indices, not objects: ``build_samples`` normalizes the
columns of a ``ClimateSeries`` once into read-only ``inputs`` (N, D) and
``targets`` (N, K) arrays, one row per record, and names each window by
the row of its final record (``ends``). The window ending at row e is
``inputs[e - window_len + 1 : e + 1]`` and its target is ``targets[e]``.
``stack_steps`` gathers a batch of windows from those arrays in one
step, step-major (T, B, D), because the LSTM kernel reads one step of
every window at a time; ``stack_samples`` returns that gather as a
(B, T, D) view, with the windows' targets. Normalization bounds are
fixed physical ranges rather than data statistics, so the mapping is
identical across greenhouses and across time; out-of-range values are
clamped to [0, 1] and every clamp is counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .climate import ClimateSeries

INPUT_FIELDS = ("t_air", "rh", "radiation", "co2", "t_leaf")
TARGET_FIELDS = ("transpiration", "photosynthesis")

# (min, max) physical bounds per feature
DEFAULT_INPUT_BOUNDS = (
    (0.0, 50.0),     # t_air
    (0.0, 100.0),    # rh
    (0.0, 1200.0),   # radiation
    (0.0, 2000.0),   # co2
    (0.0, 50.0),     # t_leaf
)
DEFAULT_TARGET_BOUNDS = (
    (0.0, 5.0),      # transpiration
    (0.0, 50.0),     # photosynthesis
)


@dataclass(eq=False)
class Windows:
    """Every window of one normalized series, named by its final-record row."""

    label: str               # originating greenhouse
    inputs: np.ndarray       # (N, 5), values in [0, 1], read-only
    targets: np.ndarray      # (N, 2), values in [0, 1], read-only
    timestamps: np.ndarray   # (N,) record timestamps
    ends: np.ndarray         # (W,) final-record row of each window, in temporal order
    window_len: int

    def __len__(self) -> int:
        return len(self.ends)


@dataclass
class Normalizer:
    """Affine [0, 1] mapping with fixed per-feature bounds and clamp counting."""

    input_low: np.ndarray
    input_high: np.ndarray
    target_low: np.ndarray
    target_high: np.ndarray
    clamp_count: int = 0

    def __post_init__(self):
        for low, high in (
            (self.input_low, self.input_high),
            (self.target_low, self.target_high),
        ):
            if not (high > low).all():
                raise ValueError("Normalizer: every feature needs max > min")

    def _normalize(self, values: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        out = (np.asarray(values, dtype=np.float64) - low) / (high - low)
        clamped = int((out < 0.0).sum() + (out > 1.0).sum())
        if clamped:
            self.clamp_count += clamped
            out = np.clip(out, 0.0, 1.0)
        return out

    def normalize_inputs(self, values: np.ndarray) -> np.ndarray:
        return self._normalize(values, self.input_low, self.input_high)

    def normalize_targets(self, values: np.ndarray) -> np.ndarray:
        return self._normalize(values, self.target_low, self.target_high)


def default_normalizer() -> Normalizer:
    input_bounds = np.array(DEFAULT_INPUT_BOUNDS, dtype=np.float64)
    target_bounds = np.array(DEFAULT_TARGET_BOUNDS, dtype=np.float64)
    return Normalizer(
        input_low=input_bounds[:, 0],
        input_high=input_bounds[:, 1],
        target_low=target_bounds[:, 0],
        target_high=target_bounds[:, 1],
    )


def window_count(n_records: int, window_len: int, stride: int) -> int:
    """floor((N - L)/stride) + 1 for N >= L, else 0."""
    if window_len < 1 or stride < 1:
        raise ValueError(f"window_count: need window_len, stride >= 1, got {window_len}, {stride}")
    if n_records < window_len:
        return 0
    return (n_records - window_len) // stride + 1


def build_samples(
    series: ClimateSeries,
    label: str,
    window_len: int,
    stride: int,
    normalizer: Normalizer,
) -> Windows:
    """The series normalized once, with its windows in temporal order."""
    count = window_count(len(series), window_len, stride)
    inputs = np.column_stack([getattr(series, f) for f in INPUT_FIELDS])
    targets = np.column_stack([getattr(series, f) for f in TARGET_FIELDS])
    norm_inputs = normalizer.normalize_inputs(inputs)
    norm_targets = normalizer.normalize_targets(targets)
    timestamps = np.array(series.timestamp, dtype=np.int64)
    norm_inputs.flags.writeable = False
    norm_targets.flags.writeable = False
    timestamps.flags.writeable = False
    ends = np.arange(count, dtype=np.int64) * stride + (window_len - 1)
    return Windows(label, norm_inputs, norm_targets, timestamps, ends, window_len)


def stack_samples(
    inputs: np.ndarray, targets: np.ndarray, rows: np.ndarray, window_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """The windows ending at ``rows`` as (B, T, D) inputs, a view of their
    step-major ``stack_steps`` gather, and their (B, K) targets."""
    return stack_steps(inputs, rows, window_len).transpose(1, 0, 2), targets[rows]


def stack_steps(inputs: np.ndarray, rows: np.ndarray, window_len: int) -> np.ndarray:
    """The windows ending at ``rows`` step-major: a C-contiguous (T, B, D)
    array whose [t, b] is step t of window b, so each step's rows are
    contiguous for a kernel that reads one step at a time."""
    if len(rows) and (rows.min() < window_len - 1 or rows.max() >= len(inputs)):
        raise ValueError(
            f"window rows must lie in [{window_len - 1}, {len(inputs)}), "
            f"the final rows of whole windows"
        )
    return inputs[rows - (window_len - 1) + np.arange(window_len)[:, None]]
