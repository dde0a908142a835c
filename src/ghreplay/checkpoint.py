"""Single-file checkpoints: model, optimizer, memory and RNG streams.

The container is a numpy ``.npz`` archive (self-describing named arrays)
with configuration and RNG stream states embedded as JSON strings. All
float64 payloads round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import WindowedSample
from .memory import EpisodicMemory, MemoryConfig, SubstitutionStrategy
from .model import AdamState, ModelConfig, ModelParams, zeros_params


@dataclass
class CheckpointBundle:
    model_cfg: ModelConfig
    params: ModelParams
    adam: AdamState
    memory: EpisodicMemory
    rng_states: dict[str, dict]


SLOT_ARRAYS = ("inputs", "targets", "labels", "end_ts")


def _stack_slot_arrays(samples: list[WindowedSample], cfg: ModelConfig):
    if samples:
        inputs = np.stack([s.inputs for s in samples])
        targets = np.stack([s.targets for s in samples])
        labels = np.array([s.label for s in samples])
        end_ts = np.array([s.end_timestamp for s in samples], dtype=np.int64)
    else:
        inputs = np.zeros((0, cfg.window_len, cfg.input_dim))
        targets = np.zeros((0, cfg.output_dim))
        labels = np.array([], dtype="U1")
        end_ts = np.array([], dtype=np.int64)
    return inputs, targets, labels, end_ts


def save_checkpoint(
    path: str | Path,
    model_cfg: ModelConfig,
    params: ModelParams,
    adam: AdamState,
    memory: EpisodicMemory,
    rng_states: dict[str, dict],
) -> None:
    arrays: dict[str, np.ndarray] = {}
    for prefix, store in (("param", params), ("adam_m", adam.m), ("adam_v", adam.v)):
        for name, arr in store.items():
            arrays[f"{prefix}__{name}"] = arr
    arrays["adam_t"] = np.array(adam.t, dtype=np.int64)

    for prefix, samples in (("mem", memory.slots), ("mem_pending", memory._pending)):
        for name, arr in zip(SLOT_ARRAYS, _stack_slot_arrays(samples, model_cfg)):
            arrays[f"{prefix}_{name}"] = arr
    arrays["mem_observed_count"] = np.array(memory.observed_count, dtype=np.int64)

    meta = {
        "model_config": dataclasses.asdict(model_cfg),
        "memory_config": {
            "capacity": memory.config.capacity,
            "substitution_probability": memory.config.substitution_probability,
            "strategy": memory.config.strategy.value,
        },
        "rng_states": rng_states,
    }
    arrays["meta_json"] = np.array(json.dumps(meta, sort_keys=True))
    np.savez_compressed(Path(path), **arrays)


def _array(path, data, key: str) -> np.ndarray:
    if key not in data.files:
        raise ValueError(f"{path}: array {key} is missing")
    return data[key]


def _checked(path, key: str, arr: np.ndarray, shape: tuple, finite: bool = True) -> np.ndarray:
    """``arr``, loaded as ``key``, checked to have ``shape`` and, if
    ``finite``, only finite values."""
    if arr.shape != shape:
        raise ValueError(f"{path}: array {key} has shape {arr.shape}, expected {shape}")
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"{path}: array {key} contains non-finite values")
    return arr


def _checked_params(path, data, prefix: str, expected: ModelParams) -> ModelParams:
    """The ``{prefix}__*`` arrays, each with its parameter's shape in ``expected``."""
    arrays = {}
    for name, like in expected.items():
        key = f"{prefix}__{name}"
        arrays[name] = _checked(path, key, _array(path, data, key), like.shape)
    return ModelParams(**arrays)


def _checked_slots(path, data, prefix: str, cfg: ModelConfig) -> list[WindowedSample]:
    """The memory samples stored as ``{prefix}_*`` arrays: N finite windows
    of the model's shape, N finite targets, N labels and N end timestamps."""
    inputs, targets, labels, end_ts = (_array(path, data, f"{prefix}_{name}") for name in SLOT_ARRAYS)
    n = inputs.shape[0] if inputs.ndim else 0
    _checked(path, f"{prefix}_inputs", inputs, (n, cfg.window_len, cfg.input_dim))
    _checked(path, f"{prefix}_targets", targets, (n, cfg.output_dim))
    _checked(path, f"{prefix}_labels", labels, (n,), finite=False)
    _checked(path, f"{prefix}_end_ts", end_ts, (n,), finite=False)
    return [
        WindowedSample(inputs=inputs[i], targets=targets[i], label=str(labels[i]), end_timestamp=int(end_ts[i]))
        for i in range(n)
    ]


def load_checkpoint(path: str | Path) -> CheckpointBundle:
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(str(data["meta_json"][()]))
        model_cfg = ModelConfig(**meta["model_config"])
        mem_meta = meta["memory_config"]
        memory_cfg = MemoryConfig(
            capacity=mem_meta["capacity"],
            substitution_probability=mem_meta["substitution_probability"],
            strategy=SubstitutionStrategy(mem_meta["strategy"]),
        )

        expected = zeros_params(model_cfg)
        params = _checked_params(path, data, "param", expected)
        adam = AdamState(
            m=_checked_params(path, data, "adam_m", expected),
            v=_checked_params(path, data, "adam_v", expected),
            t=int(data["adam_t"]),
        )

        memory = EpisodicMemory(memory_cfg)
        memory.slots = _checked_slots(path, data, "mem", model_cfg)
        memory._pending = _checked_slots(path, data, "mem_pending", model_cfg)
        memory.observed_count = int(data["mem_observed_count"])

    return CheckpointBundle(
        model_cfg=model_cfg,
        params=params,
        adam=adam,
        memory=memory,
        rng_states=meta["rng_states"],
    )
