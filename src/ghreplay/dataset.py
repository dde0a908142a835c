"""Windowing and fixed-range normalization of climate series.

A sample is a sliding window over the series: the model input is the
window's normalized feature rows and the target is the (transpiration,
photosynthesis) pair at the window's *final* timestep, which keeps the
prediction task causal.

Windows are indices, not objects. A ``Phase`` holds one greenhouse's
series normalized once into read-only ``inputs`` (N, D) and ``targets``
(N, K) arrays, one row per record, and names each window by the row of
its final record: the training ``stream`` and the held-out ``test_set``
are arrays of such rows. The window ending at row e is
``inputs[e - window_len + 1 : e + 1]`` and its target is ``targets[e]``.
``build_samples`` streams every window; ``Phase.split`` holds some out.
Rows are integers wherever they enter (``integer_rows``): a float row is
refused rather than truncated, and a window is at least one record long.
``stack_steps`` gathers a batch of windows in one step, step-major
(T, B, D), because the LSTM kernel reads one step of every window at a
time; ``stack_samples`` returns that gather as a (B, T, D) view, with
the windows' targets. Normalization bounds are fixed physical ranges,
the constants ``DEFAULT_INPUT_BOUNDS`` and ``DEFAULT_TARGET_BOUNDS``,
rather than data statistics, so the mapping is identical across
greenhouses and across time; a ``Normalizer`` clamps out-of-range
values to [0, 1] and counts every clamp.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .climate import ClimateSeries

INPUT_FIELDS = ("t_air", "rh", "radiation", "co2", "t_leaf")
TARGET_FIELDS = ("transpiration", "photosynthesis")
WINDOW_STRIDE = 2  # records between window ends: 10 minutes at 5-minute sampling


def _read_only(arr, dtype) -> np.ndarray:
    """A read-only view of ``arr`` as ``dtype`` (a copy only to convert)."""
    out = np.asarray(arr, dtype=dtype).view()
    out.flags.writeable = False
    return out


# (min, max) physical bounds per feature, one row per field
DEFAULT_INPUT_BOUNDS = _read_only([
    (0.0, 50.0),     # t_air
    (0.0, 100.0),    # rh
    (0.0, 1200.0),   # radiation
    (0.0, 2000.0),   # co2
    (0.0, 50.0),     # t_leaf
], np.float64)
DEFAULT_TARGET_BOUNDS = _read_only([
    (0.0, 5.0),      # transpiration
    (0.0, 50.0),     # photosynthesis
], np.float64)


def integer_rows(rows, what: str) -> np.ndarray:
    """``rows`` as an int64 array. A non-empty array of any dtype but an
    integer one is refused rather than truncated; an empty list passes,
    though ``np.asarray([])`` is float64. ``what`` names the rows."""
    rows = np.asarray(rows)
    if rows.size and not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"{what} rows must be integers, got dtype {rows.dtype}")
    return rows.astype(np.int64, copy=False)


def _check_window_rows(rows: np.ndarray, window_len: int, n_records: int, what: str) -> None:
    """Raise unless ``window_len`` is at least 1 and every row of ``rows``
    ends a whole window of a series of ``n_records`` records; ``what``
    names the rows in the message."""
    if window_len < 1:
        raise ValueError(f"{what} rows: window_len must be at least 1, got {window_len}")
    if len(rows) and (rows.min() < window_len - 1 or rows.max() >= n_records):
        raise ValueError(f"{what} rows must lie in [{window_len - 1}, {n_records}), "
                         f"the final rows of whole windows")


@dataclass(eq=False)
class Phase:
    """One greenhouse's normalized series, its training stream and its
    held-out test set; the stream and the test set are final-record rows."""

    label: str               # originating greenhouse
    inputs: np.ndarray       # (N, D), read-only
    targets: np.ndarray      # (N, K), read-only
    timestamps: np.ndarray   # (N,) record timestamps
    stream: np.ndarray       # training windows in temporal order
    test_set: np.ndarray     # held-out windows
    window_len: int

    def __post_init__(self):
        self.inputs = _read_only(self.inputs, np.float64)
        self.targets = _read_only(self.targets, np.float64)
        self.timestamps = _read_only(self.timestamps, np.int64)
        self.stream = _read_only(integer_rows(self.stream, f"phase {self.label}: stream"),
                                 np.int64).reshape(-1)
        self.test_set = _read_only(integer_rows(self.test_set, f"phase {self.label}: test set"),
                                   np.int64).reshape(-1)
        n = len(self.timestamps)
        if len(self.inputs) != n or len(self.targets) != n:
            raise ValueError(f"phase {self.label}: inputs, targets and timestamps need one row "
                             f"per record, got {len(self.inputs)}, {len(self.targets)} and {n}")
        for name, rows in (("stream", self.stream), ("test set", self.test_set)):
            _check_window_rows(rows, self.window_len, n, f"phase {self.label}: {name}")
        overlap = np.intersect1d(self.stream, self.test_set)
        if len(overlap):
            raise ValueError(f"phase {self.label}: test set overlaps training stream "
                             f"({len(overlap)} shared windows)")

    def __len__(self) -> int:
        return len(self.stream) + len(self.test_set)

    def split(self, test_positions) -> "Phase":
        """This phase's windows, in temporal order, with those at
        ``test_positions`` held out and the rest streamed."""
        windows = np.sort(np.concatenate([self.stream, self.test_set]))
        held = np.zeros(len(windows), dtype=bool)
        held[np.asarray(list(test_positions), dtype=np.int64)] = True
        return replace(self, stream=windows[~held], test_set=windows[held])


@dataclass
class Normalizer:
    """Affine [0, 1] mapping by fixed bounds, counting the values it clamps."""

    clamp_count: int = 0

    def normalize(self, values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """``values`` (N, F) mapped by ``bounds`` (F, 2) of (min, max)."""
        low, high = bounds[:, 0], bounds[:, 1]
        out = (np.asarray(values, dtype=np.float64) - low) / (high - low)
        clamped = int((out < 0.0).sum() + (out > 1.0).sum())
        if clamped:
            self.clamp_count += clamped
            out = np.clip(out, 0.0, 1.0)
        return out


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
) -> Phase:
    """The series normalized once, streaming its windows in temporal order."""
    count = window_count(len(series), window_len, stride)
    inputs = np.column_stack([getattr(series, f) for f in INPUT_FIELDS])
    targets = np.column_stack([getattr(series, f) for f in TARGET_FIELDS])
    stream = np.arange(count, dtype=np.int64) * stride + (window_len - 1)
    # timestamps copied: the CSV reader's columns are views of its whole record table
    return Phase(label, normalizer.normalize(inputs, DEFAULT_INPUT_BOUNDS),
                 normalizer.normalize(targets, DEFAULT_TARGET_BOUNDS),
                 np.array(series.timestamp), stream, np.zeros(0, dtype=np.int64), window_len)


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
    _check_window_rows(rows, window_len, len(inputs), "window")
    return inputs[rows - (window_len - 1) + np.arange(window_len)[:, None]]
