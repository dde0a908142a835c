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


def _stack_slot_arrays(samples: list[WindowedSample], window_len: int, input_dim: int):
    if samples:
        inputs = np.stack([s.inputs for s in samples])
        targets = np.stack([s.targets for s in samples])
        labels = np.array([s.label for s in samples])
        end_ts = np.array([s.end_timestamp for s in samples], dtype=np.int64)
    else:
        inputs = np.zeros((0, window_len, input_dim))
        targets = np.zeros((0, 2))
        labels = np.array([], dtype="U1")
        end_ts = np.array([], dtype=np.int64)
    return inputs, targets, labels, end_ts


def _unstack_slot_arrays(inputs, targets, labels, end_ts) -> list[WindowedSample]:
    return [
        WindowedSample(
            inputs=inputs[i],
            targets=targets[i],
            label=str(labels[i]),
            end_timestamp=int(end_ts[i]),
        )
        for i in range(inputs.shape[0])
    ]


def save_checkpoint(
    path: str | Path,
    model_cfg: ModelConfig,
    params: ModelParams,
    adam: AdamState,
    memory: EpisodicMemory,
    rng_states: dict[str, dict],
) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, arr in params.items():
        arrays[f"param__{name}"] = arr
    for name, arr in adam.m.items():
        arrays[f"adam_m__{name}"] = arr
    for name, arr in adam.v.items():
        arrays[f"adam_v__{name}"] = arr
    arrays["adam_t"] = np.array(adam.t, dtype=np.int64)

    slots = _stack_slot_arrays(memory.slots, model_cfg.window_len, model_cfg.input_dim)
    arrays["mem_inputs"], arrays["mem_targets"], arrays["mem_labels"], arrays["mem_end_ts"] = slots
    pending = _stack_slot_arrays(memory._pending, model_cfg.window_len, model_cfg.input_dim)
    (
        arrays["mem_pending_inputs"],
        arrays["mem_pending_targets"],
        arrays["mem_pending_labels"],
        arrays["mem_pending_end_ts"],
    ) = pending
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


def _checked_params(path, data, prefix: str, expected: ModelParams) -> ModelParams:
    """The ``{prefix}__*`` arrays of a loaded archive, each checked to have
    its parameter's shape in ``expected`` and only finite values."""
    arrays = {}
    for name, like in expected.items():
        key = f"{prefix}__{name}"
        arr = data[key]
        if arr.shape != like.shape:
            raise ValueError(f"{path}: array {key} has shape {arr.shape}, the model needs {like.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: array {key} contains non-finite values")
        arrays[name] = arr
    return ModelParams(**arrays)


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
        memory.slots = _unstack_slot_arrays(
            data["mem_inputs"], data["mem_targets"], data["mem_labels"], data["mem_end_ts"]
        )
        memory._pending = _unstack_slot_arrays(
            data["mem_pending_inputs"],
            data["mem_pending_targets"],
            data["mem_pending_labels"],
            data["mem_pending_end_ts"],
        )
        memory.observed_count = int(data["mem_observed_count"])

    return CheckpointBundle(
        model_cfg=model_cfg,
        params=params,
        adam=adam,
        memory=memory,
        rng_states=meta["rng_states"],
    )
