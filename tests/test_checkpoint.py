import io
import json
import zipfile

import numpy as np
import pytest
from conftest import STRATEGIES, lstm_blocks, memory_config, model_config

from ghreplay import memory as memory_module
from ghreplay.checkpoint import LAYOUT, load_checkpoint, save_checkpoint
from ghreplay.dataset import Phase, stack_samples
from ghreplay.memory import EpisodicMemory
from ghreplay.model import backward, init_adam, init_model, adam_step
from ghreplay.rng import SeededRng
from ghreplay.trainer import TrainerState


WINDOW_LEN = 8


@pytest.fixture(autouse=True)
def substitution_probability(monkeypatch):
    """Sweeps at 0.25, not the protocol's 0.1: more of the few observed
    windows displace stored ones."""
    monkeypatch.setattr(memory_module, "SUBSTITUTION_PROBABILITY", 0.25)


def trained_state(seed=0, strategy="per-batch"):
    """A model config and a ``TrainerState`` after three updates, its
    memory holding windows of two series."""
    cfg = model_config(hidden_dim=6, dense_dim=5, learning_rate=1e-2, grad_clip=None)
    params = init_model(cfg, SeededRng(seed))
    adam = init_adam(cfg)
    rng = SeededRng(seed + 1)
    x = np.array([[[rng.random() for _ in range(5)] for _ in range(8)] for _ in range(4)])
    t = np.array([[rng.random(), rng.random()] for _ in range(4)])
    for _ in range(3):
        _, grads = backward(params, x, t)
        adam_step(params, grads, adam, cfg)

    memory = EpisodicMemory(
        memory_config(capacity=10, strategy=strategy, window_len=WINDOW_LEN)
    )
    ends = []
    for label in ("GH-0", "GH-1"):
        n = 30
        offset = memory.add_series(Phase(
            label,
            np.array([[rng.random() for _ in range(5)] for _ in range(n)]),
            np.array([[rng.random(), rng.random()] for _ in range(n)]),
            1000 * seed + 300 * np.arange(n, dtype=np.int64),
            stream=[], test_set=[], window_len=WINDOW_LEN,
        ))
        ends += (offset + np.arange(WINDOW_LEN - 1, n, 3)).tolist()
    mem_rng = SeededRng(seed + 2)
    memory.observe_batch(ends[:12], mem_rng)
    replay_rng = SeededRng(seed + 3)
    replay_rng.next_u64()  # a stream past its seed
    return cfg, TrainerState(params, adam, memory, replay_rng, mem_rng)


def windows_of(memory, rows):
    """(inputs, targets, origins) of the windows ending at ``rows``."""
    inputs, targets = stack_samples(memory.inputs, memory.targets, rows, WINDOW_LEN)
    return inputs, targets, memory.origins(rows)


def assert_same_windows(a, b):
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].tobytes() == b[1].tobytes()
    assert a[2:] == b[2:]


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg, state = trained_state()
    memory = state.memory
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, state)
    loaded_cfg, loaded = load_checkpoint(path)

    assert loaded_cfg == cfg
    for (name, orig), (_, back) in zip(state.params.items(), loaded.params.items()):
        assert orig.tobytes() == back.tobytes(), name
    for store in ("m", "v"):
        for (name, orig), (_, back) in zip(
            getattr(state.adam, store).items(), getattr(loaded.adam, store).items()
        ):
            assert orig.tobytes() == back.tobytes(), (store, name)
    assert loaded.adam.t == state.adam.t == 3

    assert loaded.memory.config.capacity == memory.config.capacity
    assert loaded.memory.config.strategy == memory.config.strategy
    assert len(loaded.memory) == len(memory) == 10
    assert_same_windows(windows_of(memory, memory.rows), windows_of(loaded.memory, loaded.memory.rows))
    assert loaded.memory.occupancy_stats() == memory.occupancy_stats()
    # the row block holds each table row that a stored window covers, once
    covered = {row for end in memory.rows.tolist() for row in range(end - WINDOW_LEN + 1, end + 1)}
    assert len(loaded.memory.inputs) == len(covered) < len(memory.inputs)

    for name in ("replay_rng", "memory_rng"):
        assert getattr(loaded, name).get_state() == getattr(state, name).get_state(), name


def test_checkpoint_load_and_save_rewrites_every_array(tmp_path):
    cfg, state = trained_state(seed=4)
    first, second = tmp_path / "first.npz", tmp_path / "second.npz"
    save_checkpoint(first, cfg, state)
    save_checkpoint(second, *load_checkpoint(first))
    with np.load(first) as a, np.load(second) as b:
        assert a.files == b.files == list(LAYOUT)
        for key in a.files:
            assert (a[key].dtype, a[key].shape, a[key].tobytes()) == \
                (b[key].dtype, b[key].shape, b[key].tobytes()), key


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_checkpoint_restores_equivalent_replay_behavior(tmp_path, strategy):
    cfg, state = trained_state(seed=5, strategy=strategy)
    memory = state.memory
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, state)
    _, bundle = load_checkpoint(path)

    rng_a, rng_b = state.replay_rng, bundle.replay_rng
    draws_a = memory.draw_replay(20, rng_a)
    draws_b = bundle.memory.draw_replay(20, rng_b)
    assert_same_windows(windows_of(memory, draws_a), windows_of(bundle.memory, draws_b))
    assert rng_a.get_state() == rng_b.get_state()

    # the loaded memory keeps absorbing new series like the saved one
    new_rows = {}
    for name, mem in (("saved", memory), ("loaded", bundle.memory)):
        offset = mem.add_series(Phase("GH-2", np.full((20, 5), 0.5), np.full((20, 2), 0.5),
                                      np.arange(20, dtype=np.int64), [], [], WINDOW_LEN))
        new_rows[name] = offset + np.arange(WINDOW_LEN - 1, 20)
        mem.observe_batch(new_rows[name], SeededRng(9))
    assert bundle.memory.occupancy_stats() == memory.occupancy_stats()
    assert_same_windows(windows_of(memory, memory.rows), windows_of(bundle.memory, bundle.memory.rows))


def test_checkpoint_keeps_the_memory_window_len(tmp_path):
    # the window length is the memory's: stored with its config, not the model's
    cfg, state = trained_state(seed=3)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, state)
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta_json"][()]))
    assert meta["memory_config"]["window_len"] == WINDOW_LEN
    assert sorted(meta["model_config"]) == ["dense_dim", "grad_clip", "hidden_dim", "learning_rate"]
    _, loaded = load_checkpoint(path)
    assert loaded.memory.config == state.memory.config
    assert loaded.memory.config.window_len == WINDOW_LEN
    # restored, the memory still refuses a phase of another window length
    with pytest.raises(ValueError, match="phase GH-2: windows of 9 records, "
                                         "but the memory stores windows of 8"):
        loaded.memory.add_series(Phase("GH-2", np.full((20, 5), 0.5), np.full((20, 2), 0.5),
                                       np.arange(20, dtype=np.int64), [], [], WINDOW_LEN + 1))


def test_load_checkpoint_refuses_a_checkpoint_with_the_window_len_in_the_model_config(tmp_path):
    # the meta_json of a checkpoint written while the model config carried the
    # data widths and the window length, and the memory config did not
    cfg, state = trained_state(seed=2)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, state)
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta_json"][()]))
    meta["model_config"].update(input_dim=5, output_dim=2, window_len=WINDOW_LEN)
    del meta["memory_config"]["window_len"]
    arrays["meta_json"] = np.array(json.dumps(meta, sort_keys=True))
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match=r"ckpt.npz: array meta_json: ModelConfig.__init__\(\) "
                                         r"got an unexpected keyword argument 'input_dim'$"):
        load_checkpoint(path)


def test_load_checkpoint_refuses_a_checkpoint_with_a_substitution_probability(tmp_path):
    # the meta_json of a checkpoint written while the substitution probability
    # was a memory setting, at the value every run gave it
    cfg, state = trained_state(seed=2)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, state)
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta_json"][()]))
    meta["memory_config"]["substitution_probability"] = 0.1
    arrays["meta_json"] = np.array(json.dumps(meta, sort_keys=True))
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match=r"ckpt.npz: array meta_json: MemoryConfig.__init__\(\) got an "
                                         r"unexpected keyword argument 'substitution_probability'$"):
        load_checkpoint(path)


def test_checkpoint_empty_memory(tmp_path):
    cfg, state = trained_state(seed=6)
    state.memory = EpisodicMemory(memory_config(capacity=4))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, state)
    _, bundle = load_checkpoint(path)
    assert len(bundle.memory.rows) == 0
    assert bundle.memory.inputs.shape == (0, 5)



def with_meta(section, key, value):
    """A corruption of ``meta_json`` that sets ``meta[section][key]`` to ``value``."""
    def corrupt(arr):
        meta = json.loads(str(arr[()]))
        meta[section][key] = value
        return np.array(json.dumps(meta, sort_keys=True))
    return corrupt


def without_meta(section, key):
    """A corruption of ``meta_json`` that deletes ``meta[section][key]``."""
    def corrupt(arr):
        meta = json.loads(str(arr[()]))
        del meta[section][key]
        return np.array(json.dumps(meta, sort_keys=True))
    return corrupt


@pytest.mark.parametrize(
    "key, corrupt, message",
    [
        ("param__b2", lambda a: np.concatenate([[np.inf], a[1:]]), "param__b2 contains non-finite"),
        # the recurrent block [w | u | b][:, 5:11] one column short
        ("param__lstm", lambda a: np.delete(a, 10, axis=1),
         r"param__lstm has shape \(24, 11\), expected \(24, 12\)"),
        ("adam_v__w1", lambda a: np.full_like(a, np.nan), "adam_v__w1 contains non-finite"),
        # a mean of squares: one negative entry would turn w1 NaN under Adam's square root
        ("adam_v__w1", lambda a: np.concatenate([[-a[0, 0]], a.ravel()[1:]]).reshape(a.shape),
         "adam_v__w1 has negative values"),
        ("mem_inputs", lambda a: a[:, :4], r"mem_inputs has shape \(\d+, 4\), expected \(\d+, 5\)"),
        ("mem_targets", lambda a: np.vstack([[np.nan, a[0, 1]], a[1:]]), "mem_targets contains non-finite"),
        ("mem_inputs", lambda a: np.vstack([a[:3], [[np.nan] * 5], a[4:]]), "mem_inputs contains non-finite"),
        ("mem_rows", lambda a: np.concatenate([[WINDOW_LEN - 2], a[1:]]),
         r"mem_rows has values outside \[7, \d+\)"),
        ("mem_rows", lambda a: a + 10_000, r"mem_rows has values outside \[7, \d+\)"),
        ("mem_rows", lambda a: a.astype(np.float64), "mem_rows has dtype float64, expected integers"),
        ("mem_targets", lambda a: a[:, :1], r"mem_targets has shape \(10, 1\), expected \(10, 2\)"),
        ("mem_label_ids", lambda a: np.concatenate([a[:-1], [2]]), r"mem_label_ids has values outside \[0, 2\)"),
        ("mem_timestamps", lambda a: a[1:], r"mem_timestamps has shape \(9,\), expected \(10,\)"),
        ("mem_timestamps", lambda a: a + 0.5, "mem_timestamps has dtype float64, expected integers"),
        ("mem_timestamps", lambda a: a.astype(np.uint64) + np.uint64(2**63),
         r"mem_timestamps has values outside \[-9223372036854775808, 9223372036854775808\)"),
        ("mem_labels", lambda a: np.array([7, 8]), "mem_labels has dtype int64, expected strings"),
        ("mem_labels", lambda a: a[[1, 1]], "mem_labels repeats the label 'GH-1'"),
        ("meta_json", with_meta("model_config", "learning_rate", -1.0),
         "meta_json: ModelConfig.learning_rate: -1.0 is less than or equal to the minimum of 0"),
        ("meta_json", with_meta("memory_config", "window_len", 0),
         "meta_json: MemoryConfig.window_len: 0 is less than the minimum of 1"),
        ("meta_json", with_meta("model_config", "grad_clip", -3.0),
         "meta_json: ModelConfig.grad_clip: -3.0 is less than or equal to the minimum of 0"),
        ("meta_json", with_meta("memory_config", "capacity", 0),
         "meta_json: MemoryConfig.capacity: 0 is less than the minimum of 1"),
        # Adam's constants are not settings: a stored config that names one is refused
        ("meta_json", with_meta("model_config", "adam_beta1", 1.5),
         r"meta_json: ModelConfig.__init__\(\) got an unexpected keyword argument 'adam_beta1'"),
        ("meta_json", with_meta("model_config", "adam_epsilon", -1.0),
         r"meta_json: ModelConfig.__init__\(\) got an unexpected keyword argument 'adam_epsilon'"),
        ("meta_json", with_meta("model_config", "adam_beta2", float("nan")),
         r"meta_json: ModelConfig.__init__\(\) got an unexpected keyword argument 'adam_beta2'"),
        ("meta_json", with_meta("model_config", "learning_rate", float("inf")),
         "meta_json: ModelConfig.learning_rate: inf is not a finite number"),
        ("meta_json", with_meta("model_config", "hidden_dim", 3.0),
         "meta_json: ModelConfig.hidden_dim: 3.0 is not of type 'integer'"),
        ("meta_json", with_meta("memory_config", "capacity", 2.5),
         "meta_json: MemoryConfig.capacity: 2.5 is not of type 'integer'"),
        ("meta_json", with_meta("memory_config", "capacity", True),
         "meta_json: MemoryConfig.capacity: True is not of type 'integer'"),
        ("meta_json", with_meta("memory_config", "capacity", 9),
         "mem_rows has 10 slots, over the capacity 9"),
        # a stored config states every field: none is filled from a default
        ("meta_json", without_meta("memory_config", "strategy"),
         r"meta_json: MemoryConfig.__init__\(\) missing 1 required positional argument: 'strategy'$"),
        ("meta_json", without_meta("model_config", "learning_rate"),
         r"meta_json: ModelConfig.__init__\(\) missing 1 required positional argument: "
         r"'learning_rate'$"),
        ("adam_t", lambda a: np.array(-5), r"adam_t has values outside \[0, inf\)"),
        ("adam_t", None, "adam_t is missing"),
        ("meta_json", None, "meta_json is missing"),
        ("adam_t", lambda a: np.array(3.7), "adam_t has dtype float64, expected integers"),
        ("meta_json", with_meta("rng_states", "replay", "garbage"),
         "meta_json: not a stream state: 'garbage'"),
        ("meta_json", with_meta("rng_states", "memory", None), "meta_json: not a stream state: None"),
        ("meta_json", without_meta("rng_states", "memory"), "meta_json: 'memory' is missing"),
        ("meta_json", with_meta("rng_states", "replay", {"seed": 1, "state": 2 ** 64}),
         "meta_json: not a stream state"),
        ("meta_json", with_meta("rng_states", "replay", {"seed": -1, "state": 2}),
         "meta_json: not a stream state"),
        # a stream state as written before it lost its Box-Muller cache
        ("meta_json", with_meta("rng_states", "replay", {"seed": 1, "state": 2, "gauss": None}),
         r"meta_json: not a stream state: \{'gauss': None, 'seed': 1, 'state': 2\}"),
    ],
    ids=["inf-b2", "shape-u", "nan-adam_v", "negative-adam_v", "short-mem_inputs", "nan-mem_targets", "nan-mem_inputs",
         "below-mem_rows", "beyond-mem_rows", "float-mem_rows", "shape-mem_targets",
         "unknown-mem_label_ids", "short-mem_timestamps", "float-mem_timestamps",
         "uint64-mem_timestamps", "int-mem_labels", "repeated-mem_labels", "negative-learning_rate",
         "zero-window_len", "negative-grad_clip", "zero-capacity", "above-one-adam_beta1",
         "negative-adam_epsilon", "nan-adam_beta2", "inf-learning_rate", "float-hidden_dim",
         "float-capacity", "bool-capacity", "capacity-below-slots", "missing-strategy",
         "missing-learning_rate", "negative-adam_t", "missing-adam_t", "missing-meta_json", "float-adam_t",
         "non-dict-rng-state", "null-rng-state", "missing-rng-state",
         "state-beyond-64-bits", "negative-seed", "gauss-key"],
)
def test_load_checkpoint_rejects_corrupt_arrays(tmp_path, key, corrupt, message):
    cfg, state = trained_state(seed=7)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, state)
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    if corrupt is None:
        del arrays[key]
    else:
        arrays[key] = corrupt(arrays[key])
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match=f"ckpt.npz: array {message}"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "contents",
    [lambda whole: bytes(range(256)) * 4,
     lambda whole: b"timestamp,t_air,rh\n0,20.0,50.0\n",
     lambda whole: whole[:5000],
     lambda whole: b""],
    ids=["garbage", "csv", "truncated", "empty"],
)
def test_load_checkpoint_refuses_a_file_that_is_no_archive(tmp_path, contents):
    cfg, state = trained_state(seed=5)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, state)
    path.write_bytes(contents(path.read_bytes()))
    with pytest.raises(ValueError, match=r"^.*ckpt.npz: not a checkpoint archive \("):
        load_checkpoint(path)


def rewrite_member(path, name, change, compression=None):
    """Rewrite the archive at ``path`` with member ``name``'s bytes replaced
    by ``change(bytes)``, and every member stored with ``compression`` if given."""
    with zipfile.ZipFile(path) as archive:
        members = [(info, archive.read(info)) for info in archive.infolist()]
    with zipfile.ZipFile(path, "w") as archive:
        for info, data in members:
            info.compress_type = info.compress_type if compression is None else compression
            archive.writestr(info, change(data) if info.filename == name else data)


def flip_member_byte(path, name, at, compression=None):
    """Flip byte ``at`` of member ``name``'s data as stored in the archive at
    ``path``, leaving the archive's recorded CRC as it was; first rewrite
    the archive with ``compression`` if given."""
    if compression is not None:
        rewrite_member(path, name, lambda data: data, compression)
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(name)
    raw = bytearray(path.read_bytes())
    header = info.header_offset
    start = header + 30 + int.from_bytes(raw[header + 26:header + 28], "little") \
        + int.from_bytes(raw[header + 28:header + 30], "little")
    raw[start + at % info.compress_size] ^= 0xFF
    path.write_bytes(bytes(raw))


def object_array(data):
    """An npy member holding a pickled object array, in place of ``data``."""
    out = io.BytesIO()
    np.save(out, np.array(["GH-0", None], dtype=object), allow_pickle=True)
    return out.getvalue()


@pytest.mark.parametrize(
    "damage, message",
    [
        # the deflate stream's block header
        (lambda path: flip_member_byte(path, "param__lstm.npy", at=0),
         "param__lstm is damaged: Error -3 while decompressing data"),
        # stored, not deflated: only the CRC catches the byte
        (lambda path: flip_member_byte(path, "param__b2.npy", at=-1, compression=zipfile.ZIP_STORED),
         "param__b2 is damaged: Bad CRC-32"),
        (lambda path: rewrite_member(path, "adam_t.npy", lambda data: b"3"), "adam_t is not an npy array"),
        # half of the ten slots' 80 bytes
        (lambda path: rewrite_member(path, "mem_rows.npy", lambda data: data[:-40]),
         "mem_rows is damaged: EOF: reading array data"),
        (lambda path: rewrite_member(path, "mem_labels.npy", object_array),
         "mem_labels is damaged: Object arrays cannot be loaded"),
    ],
    ids=["deflate-param__lstm", "crc-param__b2", "no-magic-adam_t", "truncated-mem_rows", "object-mem_labels"],
)
def test_load_checkpoint_names_a_damaged_member(tmp_path, damage, message):
    cfg, state = trained_state(seed=6)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, state)
    damage(path)
    with pytest.raises(ValueError, match=f"ckpt.npz: array {message}"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_per_gate_layout(tmp_path):
    # the earlier layouts of the LSTM weights and moments: w, u and b as
    # three arrays each, or as one array per gate
    cfg, state = trained_state(seed=8)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, state)
    with np.load(path, allow_pickle=False) as data:
        saved = dict(data)
    for per_gate in (False, True):
        arrays = dict(saved)
        for prefix, store in (("param", state.params), ("adam_m", state.adam.m), ("adam_v", state.adam.v)):
            del arrays[f"{prefix}__lstm"]
            for name, block in zip("wub", lstm_blocks(store)):
                if per_gate:
                    arrays.update({f"{prefix}__{name}_{gate}": block[k] for k, gate in enumerate("ifog")})
                else:
                    arrays[f"{prefix}__{name}"] = block
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="ckpt.npz: array param__lstm is missing"):
            load_checkpoint(path)


def whole_window_layout(arrays):
    """The memory layout before the index table: one whole window, label
    and end timestamp per slot."""
    arrays["mem_inputs"] = np.zeros((10, WINDOW_LEN, 5))
    arrays["mem_labels"] = np.array(["GH-0"] * 10)
    arrays["mem_end_ts"] = np.arange(10, dtype=np.int64)
    for key in ("mem_rows", "mem_label_ids", "mem_timestamps"):
        del arrays[key]


def empty_pending_arrays(arrays):
    """The four arrays of windows held back for a per-batch sweep, empty,
    as checkpoints written before the memory took batches only held them."""
    arrays["mem_pending_rows"] = np.zeros(0, dtype=np.int64)
    arrays["mem_pending_targets"] = np.zeros((0, 2))
    arrays["mem_pending_timestamps"] = np.zeros(0, dtype=np.int64)
    arrays["mem_pending_label_ids"] = np.zeros(0, dtype=np.int64)


def observed_count_layout(arrays):
    """The layout of checkpoints written while the memory counted the
    samples it observed and each stream state carried a Box-Muller cache."""
    arrays["mem_observed_count"] = np.array(len(arrays["mem_rows"]), dtype=np.int64)
    meta = json.loads(str(arrays["meta_json"][()]))
    for state in meta["rng_states"].values():
        state["gauss"] = None
    arrays["meta_json"] = np.array(json.dumps(meta, sort_keys=True))


@pytest.mark.parametrize(
    "change, message",
    [
        (whole_window_layout, "mem_rows is missing"),
        (observed_count_layout, "mem_observed_count is not part of this checkpoint layout"),
        (empty_pending_arrays, "mem_pending_rows is not part of this checkpoint layout"),
        (lambda arrays: arrays.update(mem_pending_rows=arrays["mem_rows"][:1]),
         "mem_pending_rows is not part of this checkpoint layout"),
        (lambda arrays: arrays.update(notes=np.array("stray")),
         "notes is not part of this checkpoint layout"),
    ],
    ids=["whole-window", "observed-count", "empty-pending", "pending-rows", "stray"],
)
def test_load_checkpoint_refuses_arrays_outside_the_layout(tmp_path, change, message):
    cfg, state = trained_state(seed=9)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, cfg, state)
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    change(arrays)
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match=f"ckpt.npz: array {message}$"):
        load_checkpoint(path)
