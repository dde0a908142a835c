"""Pinned golden digests of the memory's trajectory.

The memory's path through a run depends only on the window rows and the
``memory`` random stream, never on the model's floating-point results,
so these digests hold on every platform and BLAS. They pin the
``memory.csv`` bytes (occupancy fractions are ratios of slot counts) and
the checkpoint's slot rows, label ids and observed count after a small
desk scenario with a 300-slot memory, which fills after three updates
and is swept on the other eighteen.

The pins were taken from the outputs of the scalar memory, which stored
each slot as a whole window: its checkpoint named every slot by label
and end timestamp, which were translated into rows of the compacted
block. A change that alters which windows the memory keeps, or in what
order it draws its random numbers, fails here.
"""

import hashlib
import json

import numpy as np
import pytest

from ghreplay.cli import main

SPEC = {"days_per_phase": 6, "memory": {"capacity": 300}, "scenario": {"eval_every": 30, "test_size": 100}}

GOLDEN = {
    "per-batch": (
        "2c0b2980c5a906bbc6097e9937133fabd653968884a42130e728c03adc351ba1",
        "9a647b0ceffd8b8ce1254f7ebf1b1408a8cbff799eeba21c7a26d47fb05a7628",
    ),
    "per-element": (
        "2f34623a26ffe821b905e37ae86224e35898c7f41dcd8256465e50028c7f3f24",
        "9618f1e32192d264b7fd6b7814777e8c7204f4bc1f3d2dc71861a639b2bc7aac",
    ),
    "per-sample": (
        "0589152eff1d20f3ccef404229f9e8d268f0e62fcfbc4a0f3367c7371625bb65",
        "49e0275a7cb992bcc811ed5a58a95a63e821f1b4c231191c356d25e9b0cea2eb",
    ),
}


def int_digest(*arrays) -> str:
    """SHA-256 of the arrays as little-endian int64, so no platform enters."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.asarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_memory_trajectory_matches_golden_digest(tmp_path, strategy):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    args = ["--preset", "desk", "--spec", str(spec), "--out", str(tmp_path / "out")]
    assert main(["generate", *args]) == 0
    assert main(["run", *args, "--dump-memory", "--memory-strategy", strategy]) == 0

    memory_csv, slots = GOLDEN[strategy]
    assert hashlib.sha256((tmp_path / "out" / "memory.csv").read_bytes()).hexdigest() == memory_csv
    with np.load(tmp_path / "out" / "checkpoint.npz", allow_pickle=False) as data:
        assert data["mem_labels"].tolist() == ["GH-A", "GH-B", "GH-C"]
        assert int(data["mem_observed_count"]) == 2100
        assert int_digest(data["mem_rows"], data["mem_label_ids"], data["mem_observed_count"]) == slots
