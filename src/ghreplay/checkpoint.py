"""Single-file checkpoints of a run's ``TrainerState``: model, optimizer,
memory and RNG streams.

The container is a numpy ``.npz`` archive (self-describing named arrays)
with configuration and RNG stream states embedded as JSON strings. All
float64 payloads round-trip bit-exactly. The file is written to a
temporary name and moved into place, so a failed save keeps the
previous checkpoint. Loading checks every array and both stream states
and names the file and the first bad entry; it returns the model
config and a ``TrainerState`` whose update counter is the Adam step
count, one step per update in every checkpoint ``run`` writes.

The memory is stored in its index layout, compacted to what its windows
use (``R`` rows, ``n`` slots):

* ``mem_inputs`` (R, D): every table row that some stored window
  covers, once, in table order, so each window stays ``window_len``
  consecutive rows;
* ``mem_rows`` (n,): each slot's final-record row into that block, in
  ``[window_len - 1, R)``, with its target ``mem_targets`` (n, K), the
  timestamp of that record ``mem_timestamps`` (n,) and its index into
  ``mem_labels``, ``mem_label_ids`` (n,).

Checkpoints from before the memory took batches only also carry four
``mem_pending_*`` arrays for windows held back until the next per-batch
sweep. They load when those arrays are empty, as every ``run`` wrote
them, and are refused otherwise. Checkpoints in the earlier layout,
which stored every slot's whole window (``mem_end_ts`` and per-slot
label strings), are refused.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .memory import EpisodicMemory, MemoryConfig
from .model import AdamState, ModelConfig, ModelParams, zeros_params
from .rng import SeededRng
from .trainer import TrainerState


def _memory_arrays(memory: EpisodicMemory, cfg: ModelConfig) -> dict[str, np.ndarray]:
    """The memory's slots over the table rows they cover."""
    ends = memory.rows
    table_rows = len(memory.timestamps)
    # +1 where a window starts, -1 past where it ends: rows with a positive
    # running sum lie inside some window
    edges = (np.bincount(ends - (cfg.window_len - 1), minlength=table_rows + 1)
             - np.bincount(ends + 1, minlength=table_rows + 1))
    covered = np.cumsum(edges[:table_rows]) > 0
    block_row = np.cumsum(covered) - 1
    keep = np.flatnonzero(covered)
    return {
        "mem_inputs": memory.inputs[keep] if len(keep) else np.zeros((0, cfg.input_dim)),
        "mem_labels": np.array(memory.labels, dtype=str),
        "mem_observed_count": np.array(memory.observed_count, dtype=np.int64),
        "mem_rows": block_row[ends],
        "mem_targets": memory.targets[ends] if len(ends) else np.zeros((0, cfg.output_dim)),
        "mem_timestamps": memory.timestamps[ends],
        "mem_label_ids": memory.row_label_ids[ends],
    }


def save_checkpoint(path: str | Path, model_cfg: ModelConfig, state: TrainerState) -> None:
    arrays: dict[str, np.ndarray] = {}
    adam = state.adam
    for prefix, store in (("param", state.params), ("adam_m", adam.m), ("adam_v", adam.v)):
        for name, arr in store.items():
            arrays[f"{prefix}__{name}"] = arr
    arrays["adam_t"] = np.array(adam.t, dtype=np.int64)

    arrays.update(_memory_arrays(state.memory, model_cfg))

    meta = {
        "model_config": dataclasses.asdict(model_cfg),
        "memory_config": dataclasses.asdict(state.memory.config),
        "rng_states": {"replay": state.replay_rng.get_state(),
                       "memory": state.memory_rng.get_state()},
    }
    arrays["meta_json"] = np.array(json.dumps(meta, sort_keys=True))
    with atomic_open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def _array(path, data, key: str) -> np.ndarray:
    if key not in data.files:
        raise ValueError(f"{path}: array {key} is missing")
    return data[key]


def _checked(path, key: str, arr: np.ndarray, shape: tuple, finite: bool = True,
             within: tuple[int, float] | None = None) -> np.ndarray:
    """``arr``, loaded as ``key``, checked to have ``shape`` and, if
    ``finite``, only finite values; if ``within`` is ``(low, high)``, to
    hold integers in ``[low, high)`` (``high`` may be ``inf``)."""
    if arr.shape != shape:
        raise ValueError(f"{path}: array {key} has shape {arr.shape}, expected {shape}")
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"{path}: array {key} contains non-finite values")
    if within is not None:
        low, high = within
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{path}: array {key} has dtype {arr.dtype}, expected integers")
        if arr.size and (arr.min() < low or arr.max() >= high):
            raise ValueError(f"{path}: array {key} has values outside [{low}, {high})")
    return arr


def _checked_params(path, data, prefix: str, expected: ModelParams) -> ModelParams:
    """The ``{prefix}__*`` arrays, each with its parameter's shape in ``expected``."""
    arrays = {}
    for name, like in expected.items():
        key = f"{prefix}__{name}"
        arrays[name] = _checked(path, key, _array(path, data, key), like.shape)
    return ModelParams(**arrays)


def _checked_memory(path, data, memory: EpisodicMemory, cfg: ModelConfig) -> None:
    """Load the memory arrays into ``memory``: a finite (R, input_dim) row
    block, slot rows that end whole windows inside it, finite targets,
    timestamps and label ids into the stored label list. The loaded row
    table holds a target, a timestamp and a label id only at those final
    rows."""
    if "mem_end_ts" in data.files:
        raise ValueError(
            f"{path}: the memory is stored as whole windows (array mem_end_ts), "
            f"an earlier checkpoint layout that this version does not load"
        )
    if "mem_pending_rows" in data.files and data["mem_pending_rows"].size:
        raise ValueError(
            f"{path}: array mem_pending_rows holds windows held back for a per-batch "
            f"sweep, which this version does not keep"
        )
    inputs = _array(path, data, "mem_inputs")
    n_rows = inputs.shape[0] if inputs.ndim else 0
    _checked(path, "mem_inputs", inputs, (n_rows, cfg.input_dim))
    labels = _array(path, data, "mem_labels")
    _checked(path, "mem_labels", labels, (labels.size,), finite=False)
    rows = _array(path, data, "mem_rows")
    n = rows.shape[0] if rows.ndim else 0
    _checked(path, "mem_rows", rows, (n,), finite=False, within=(cfg.window_len - 1, n_rows))
    targets = np.zeros((n_rows, cfg.output_dim))
    timestamps = np.zeros(n_rows, dtype=np.int64)
    row_label_ids = np.full(n_rows, -1, dtype=np.int64)
    targets[rows] = _checked(path, "mem_targets", _array(path, data, "mem_targets"),
                             (n, cfg.output_dim))
    timestamps[rows] = _checked(path, "mem_timestamps", _array(path, data, "mem_timestamps"),
                                (n,), finite=False)
    row_label_ids[rows] = _checked(path, "mem_label_ids", _array(path, data, "mem_label_ids"),
                                   (n,), finite=False, within=(0, len(labels)))
    memory.rows = rows.astype(np.int64)
    inputs.flags.writeable = targets.flags.writeable = False
    memory.labels = [str(label) for label in labels]
    memory.inputs, memory.targets = inputs, targets
    memory.timestamps, memory.row_label_ids = timestamps, row_label_ids
    memory.observed_count = int(_checked(path, "mem_observed_count",
                                         _array(path, data, "mem_observed_count"), (),
                                         finite=False, within=(n, np.inf)))
    if n > memory.config.capacity:
        raise ValueError(f"{path}: array mem_rows has {n} slots, "
                         f"over the capacity {memory.config.capacity}")


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, TrainerState]:
    with np.load(Path(path), allow_pickle=False) as data:
        meta_json = str(_array(path, data, "meta_json")[()])
        try:
            meta = json.loads(meta_json)
            model_cfg = ModelConfig(**meta["model_config"])
            memory = EpisodicMemory(MemoryConfig(**meta["memory_config"]))
            replay_rng, memory_rng = (SeededRng.from_state(meta["rng_states"][name])
                                      for name in ("replay", "memory"))
        except KeyError as exc:
            raise ValueError(f"{path}: array meta_json: {exc} is missing") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: array meta_json: {exc}") from None

        expected = zeros_params(model_cfg)
        params = _checked_params(path, data, "param", expected)
        adam = AdamState(
            m=_checked_params(path, data, "adam_m", expected),
            v=_checked_params(path, data, "adam_v", expected),
            t=int(_checked(path, "adam_t", _array(path, data, "adam_t"), (),
                           finite=False, within=(0, np.inf))),
        )
        _checked_memory(path, data, memory, model_cfg)

    return model_cfg, TrainerState(params, adam, memory, replay_rng, memory_rng,
                                   update_index=adam.t)
