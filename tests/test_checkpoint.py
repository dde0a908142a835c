import numpy as np
import pytest

from conftest import make_sample
from ghreplay.checkpoint import load_checkpoint, save_checkpoint
from ghreplay.memory import EpisodicMemory, MemoryConfig, SubstitutionStrategy
from ghreplay.model import ModelConfig, backward, init_adam, init_model, adam_step
from ghreplay.rng import SeededRng


def trained_bundle(seed=0):
    cfg = ModelConfig(hidden_dim=6, dense_dim=5, window_len=8, learning_rate=1e-2, grad_clip=None)
    params = init_model(cfg, SeededRng(seed))
    adam = init_adam(cfg)
    rng = SeededRng(seed + 1)
    x = np.array([[[rng.random() for _ in range(5)] for _ in range(8)] for _ in range(4)])
    t = np.array([[rng.random(), rng.random()] for _ in range(4)])
    for _ in range(3):
        _, grads = backward(params, x, t)
        adam_step(params, grads, adam, cfg)

    memory = EpisodicMemory(
        MemoryConfig(capacity=10, substitution_probability=0.25, strategy=SubstitutionStrategy.PER_BATCH)
    )
    mem_rng = SeededRng(seed + 2)
    samples = [make_sample(f"GH-{i % 2}", end_timestamp=i, window_len=8) for i in range(14)]
    memory.observe_batch(samples[:12], mem_rng)
    memory.observe(samples[12], mem_rng)  # leaves one pending sample
    rng_states = {
        "replay": SeededRng(seed + 3).get_state(),
        "memory": mem_rng.get_state(),
    }
    return cfg, params, adam, memory, rng_states


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg, params, adam, memory, rng_states = trained_bundle()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, params, adam, memory, rng_states)
    bundle = load_checkpoint(path)

    assert bundle.model_cfg == cfg
    for (name, orig), (_, back) in zip(params.items(), bundle.params.items()):
        assert orig.tobytes() == back.tobytes(), name
    for store in ("m", "v"):
        for (name, orig), (_, back) in zip(
            getattr(adam, store).items(), getattr(bundle.adam, store).items()
        ):
            assert orig.tobytes() == back.tobytes(), (store, name)
    assert bundle.adam.t == adam.t

    assert bundle.memory.config.capacity == memory.config.capacity
    assert bundle.memory.config.substitution_probability == memory.config.substitution_probability
    assert bundle.memory.config.strategy == memory.config.strategy
    assert bundle.memory.observed_count == memory.observed_count
    assert len(bundle.memory.slots) == len(memory.slots)
    for orig, back in zip(memory.slots, bundle.memory.slots):
        assert orig.inputs.tobytes() == back.inputs.tobytes()
        assert orig.targets.tobytes() == back.targets.tobytes()
        assert orig.label == back.label
        assert orig.end_timestamp == back.end_timestamp
    assert len(bundle.memory._pending) == len(memory._pending) == 1

    assert bundle.rng_states == rng_states


def test_checkpoint_restores_equivalent_replay_behavior(tmp_path):
    cfg, params, adam, memory, rng_states = trained_bundle(seed=5)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, params, adam, memory, rng_states)
    bundle = load_checkpoint(path)

    rng_a = SeededRng.from_state(rng_states["replay"])
    rng_b = SeededRng.from_state(bundle.rng_states["replay"])
    draws_a = memory.draw_replay(20, rng_a)
    draws_b = bundle.memory.draw_replay(20, rng_b)
    for a, b in zip(draws_a, draws_b):
        assert a.label == b.label and a.end_timestamp == b.end_timestamp
        assert a.inputs.tobytes() == b.inputs.tobytes()


def test_checkpoint_empty_memory(tmp_path):
    cfg, params, adam, _, rng_states = trained_bundle(seed=6)
    memory = EpisodicMemory(MemoryConfig(capacity=4))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, params, adam, memory, rng_states)
    bundle = load_checkpoint(path)
    assert bundle.memory.slots == [] and bundle.memory._pending == []
    assert bundle.memory.observed_count == 0



@pytest.mark.parametrize(
    "key, corrupt, message",
    [
        ("param__b2", lambda a: np.concatenate([[np.inf], a[1:]]), "param__b2 contains non-finite"),
        ("param__u", lambda a: a[:, :, :-1], r"param__u has shape \(4, 6, 5\), expected \(4, 6, 6\)"),
        ("adam_v__w1", lambda a: np.full_like(a, np.nan), "adam_v__w1 contains non-finite"),
        ("mem_inputs", lambda a: a[:, :5], r"mem_inputs has shape \(10, 5, 5\), expected \(10, 8, 5\)"),
        ("mem_targets", lambda a: np.vstack([[np.nan, a[0, 1]], a[1:]]), "mem_targets contains non-finite"),
    ],
    ids=["inf-b2", "shape-u", "nan-adam_v", "short-mem_inputs", "nan-mem_targets"],
)
def test_load_checkpoint_rejects_corrupt_arrays(tmp_path, key, corrupt, message):
    cfg, params, adam, memory, rng_states = trained_bundle(seed=7)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, params, adam, memory, rng_states)
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    arrays[key] = corrupt(arrays[key])
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match=f"ckpt.npz: array {message}"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_per_gate_layout(tmp_path):
    cfg, params, adam, memory, rng_states = trained_bundle(seed=8)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, params, adam, memory, rng_states)
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    w = arrays.pop("param__w")
    for k, gate in enumerate("ifog"):
        arrays[f"param__w_{gate}"] = w[k]
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match="ckpt.npz: array param__w is missing"):
        load_checkpoint(path)
