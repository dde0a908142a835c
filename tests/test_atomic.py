import numpy as np
import pytest

from conftest import memory_config, model_config, series_rows
from ghreplay import checkpoint, trainer
from ghreplay.atomic import atomic_open
from ghreplay.climate import PRESETS, generate_series
from ghreplay.csvio import write_records
from ghreplay.memory import EpisodicMemory
from ghreplay.model import init_adam, init_model
from ghreplay.rng import SeededRng


class Boom(RuntimeError):
    pass


def rows_then_boom():
    yield (1, "GH-A", 0.5)
    raise Boom("failed after one row")


def small_state(seed):
    cfg = model_config(hidden_dim=3, dense_dim=3)
    root = SeededRng(seed)
    return cfg, trainer.TrainerState(init_model(cfg, root), init_adam(cfg),
                                     EpisodicMemory(memory_config(capacity=2)),
                                     root.split("replay"), root.split("memory"))


def write_table(path, monkeypatch):
    trainer._write_table(path, trainer.MEMORY_COLUMNS, rows_then_boom())


class Unwritable:
    def __index__(self):
        raise Boom("timestamp cannot be formatted")


def write_climate(path, monkeypatch):
    series = series_rows(generate_series(PRESETS["GH-A"], days=1, rng=SeededRng(1)), slice(4))
    series.timestamp = series.timestamp.astype(object)
    series.timestamp[3] = Unwritable()  # the fourth record fails mid-file
    write_records(path, series)


def write_checkpoint(path, monkeypatch):
    def partial_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 partial archive")
        raise Boom("failed mid-archive")

    monkeypatch.setattr(np, "savez_compressed", partial_savez)
    checkpoint.save_checkpoint(path, *small_state(2))


@pytest.mark.parametrize("write", [write_table, write_climate, write_checkpoint],
                         ids=["table-csv", "climate-csv", "checkpoint"])
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, write):
    path = tmp_path / "out.file"
    path.write_bytes(b"previous contents\n")
    with pytest.raises((Boom, AttributeError)):
        write(path, monkeypatch)
    assert path.read_bytes() == b"previous contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.file"]


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "manifest.json"
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("first\n")
    with pytest.raises(Boom):
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write("second, cut short")
            raise Boom("interrupted")
    assert path.read_text(encoding="utf-8") == "first\n"
    with atomic_open(path, "wb") as fh:
        fh.write(b"third\n")
    assert path.read_bytes() == b"third\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_checkpoint_file_name_is_kept_exactly(tmp_path):
    # numpy appends ".npz" to a bare path; the open handle keeps the name
    cfg, state = small_state(3)
    path = tmp_path / "state.ckpt"
    checkpoint.save_checkpoint(path, cfg, state)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]
    assert checkpoint.load_checkpoint(path)[0] == cfg
