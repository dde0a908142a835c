"""Single-file checkpoints of a run's ``TrainerState``: model, optimizer,
memory and RNG streams.

The container is a numpy ``.npz`` archive (self-describing named arrays)
with configuration and RNG stream states embedded as JSON strings. All
float64 payloads round-trip bit-exactly. The file is written to a
temporary name and moved into place, so a failed save keeps the
previous checkpoint. Loading refuses a file that is not a zip archive,
checks every array and both stream states and names the file and the
first bad entry; it returns the model config and a ``TrainerState``.
The Adam step count ``adam_t`` is the run's only update counter: one
step per update in every checkpoint ``run`` writes.

The file holds exactly the arrays ``save_checkpoint`` writes, ``LAYOUT``:
one per parameter and Adam moment, ``adam_t``, ``meta_json`` and the
memory's ``EpisodicMemory.snapshot``, which states each distinct slot
row's target, timestamp and label once (``mem_row_*``). A file with an
array missing, or with any other array, is refused; so is a file in
the earlier layout that stated them per slot (``mem_targets``,
``mem_timestamps``, ``mem_label_ids``).
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .dataset import INPUT_FIELDS, TARGET_FIELDS
from .memory import EpisodicMemory, MemoryConfig
from .model import AdamState, ModelConfig, ModelParams, zeros_params
from .rng import SeededRng
from .trainer import TrainerState


LAYOUT = (*(f"{prefix}__{field.name}" for prefix in ("param", "adam_m", "adam_v")
            for field in dataclasses.fields(ModelParams)),
          "adam_t", "mem_inputs", "mem_labels", "mem_rows", "mem_row_targets",
          "mem_row_timestamps", "mem_row_label_ids", "meta_json")


def save_checkpoint(path: str | Path, model_cfg: ModelConfig, state: TrainerState) -> None:
    arrays: dict[str, np.ndarray] = {}
    adam = state.adam
    for prefix, store in (("param", state.params), ("adam_m", adam.m), ("adam_v", adam.v)):
        for name, arr in store.items():
            arrays[f"{prefix}__{name}"] = arr
    arrays["adam_t"] = np.array(adam.t, dtype=np.int64)

    arrays.update(state.memory.snapshot())

    meta = {
        "model_config": dataclasses.asdict(model_cfg),
        "memory_config": dataclasses.asdict(state.memory.config),
        "rng_states": {"replay": state.replay_rng.get_state(),
                       "memory": state.memory_rng.get_state()},
    }
    arrays["meta_json"] = np.array(json.dumps(meta, sort_keys=True))
    with atomic_open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def _read(path, data, key: str) -> np.ndarray:
    """The archive member ``key`` of the open checkpoint ``data``, refused
    if it does not read, or reads as anything but an array."""
    try:
        arr = data[key]
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError(f"{path}: array {key} is damaged: {exc}") from None
    if not isinstance(arr, np.ndarray):  # np.load hands back a member without the npy magic as bytes
        raise ValueError(f"{path}: array {key} is not an npy array")
    return arr


def _checked(path, arrays, key: str, shape: tuple, finite: bool = True,
             within: tuple[int, float] | None = None) -> np.ndarray:
    """``arrays[key]``, checked to have ``shape`` and, if ``finite``, only
    finite values; if ``within`` is ``(low, high)``, to hold integers in
    ``[low, high)`` (``high`` may be ``inf``)."""
    arr = arrays[key]
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


def _checked_params(path, arrays, prefix: str, expected: ModelParams) -> ModelParams:
    """The ``{prefix}__*`` arrays, each with its parameter's shape in ``expected``."""
    return ModelParams(**{name: _checked(path, arrays, f"{prefix}__{name}", like.shape)
                          for name, like in expected.items()})


def _check_memory(path, arrays, cfg: MemoryConfig) -> None:
    """Check the memory arrays: a finite (R, D) row block with one column
    per input field, distinct string labels, at most ``capacity`` slot
    rows that end whole windows inside the block, and for each of the U
    distinct slot rows a finite target, an int64 timestamp and a label id
    into the stored label list."""
    inputs, labels, rows = arrays["mem_inputs"], arrays["mem_labels"], arrays["mem_rows"]
    n_rows = inputs.shape[0] if inputs.ndim else 0
    _checked(path, arrays, "mem_inputs", (n_rows, len(INPUT_FIELDS)))
    _checked(path, arrays, "mem_labels", (labels.size,), finite=False)
    if labels.dtype.kind != "U":
        raise ValueError(f"{path}: array mem_labels has dtype {labels.dtype}, expected strings")
    names = labels.tolist()
    repeated = [label for k, label in enumerate(names) if label in names[:k]]
    if repeated:
        raise ValueError(f"{path}: array mem_labels repeats the label {repeated[0]!r}")
    n = rows.shape[0] if rows.ndim else 0
    _checked(path, arrays, "mem_rows", (n,), finite=False, within=(cfg.window_len - 1, n_rows))
    distinct = len(np.unique(rows))
    _checked(path, arrays, "mem_row_targets", (distinct, len(TARGET_FIELDS)))
    # the memory's table holds int64 timestamps
    _checked(path, arrays, "mem_row_timestamps", (distinct,), finite=False, within=(-2**63, 2**63))
    _checked(path, arrays, "mem_row_label_ids", (distinct,), finite=False, within=(0, len(labels)))
    if n > cfg.capacity:
        raise ValueError(f"{path}: array mem_rows has {n} slots, over the capacity {cfg.capacity}")


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, TrainerState]:
    with open(path, "rb") as fh:  # np.load would read any other file as a pickle or a broken zip
        if not zipfile.is_zipfile(fh):
            raise ValueError(f"{path}: not a checkpoint archive (no zip directory found)")
    with np.load(Path(path), allow_pickle=False) as data:
        for key in (*LAYOUT, *data.files):
            if key not in data.files:
                raise ValueError(f"{path}: array {key} is missing")
            if key not in LAYOUT:
                raise ValueError(f"{path}: array {key} is not part of this checkpoint layout")
        arrays = {key: _read(path, data, key) for key in LAYOUT}
    try:
        meta = json.loads(str(arrays["meta_json"][()]))
        model_cfg = ModelConfig(**meta["model_config"])
        memory_cfg = MemoryConfig(**meta["memory_config"])
        replay_rng, memory_rng = (SeededRng.from_state(meta["rng_states"][name])
                                  for name in ("replay", "memory"))
    except KeyError as exc:
        raise ValueError(f"{path}: array meta_json: {exc} is missing") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: array meta_json: {exc}") from None

    expected = zeros_params(model_cfg)
    params = _checked_params(path, arrays, "param", expected)
    adam = AdamState(
        m=_checked_params(path, arrays, "adam_m", expected),
        v=_checked_params(path, arrays, "adam_v", expected),
        t=int(_checked(path, arrays, "adam_t", (), finite=False, within=(0, np.inf))),
    )
    for name, arr in adam.v.items():  # a mean of squared gradients, under Adam's square root
        if (arr < 0).any():
            raise ValueError(f"{path}: array adam_v__{name} has negative values")
    _check_memory(path, arrays, memory_cfg)
    memory = EpisodicMemory.restore(memory_cfg, arrays)
    return model_cfg, TrainerState(params, adam, memory, replay_rng, memory_rng)
