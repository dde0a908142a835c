"""Pinned golden digests of the generated inputs and of the memory's trajectory.

The climate CSVs that ``generate --preset desk`` writes are pinned by
SHA-256 for two seeds. They were taken from the record-by-record
generator and ``csv.writer``; the columnar generator and the one-string
writer must give the same bytes.

The memory's path through a run depends only on the window rows and the
``memory`` random stream, never on the model's floating-point results,
so these digests hold on every platform and BLAS. They pin the
``memory.csv`` bytes (occupancy fractions are ratios of slot counts) and
the checkpoint's slot rows and label ids after a small desk scenario
with a 300-slot memory, which fills after three updates and is swept on
the other eighteen.

The pins were taken from the outputs of the scalar memory, which stored
each slot as a whole window: its checkpoint named every slot by label
and end timestamp, which were translated into rows of the compacted
block. The slot digests were re-pinned when the checkpoint lost its
count of observed samples, to the two-array digest of the checkpoints
that the code just before that change wrote, whose three-array digests
were the earlier pins. A change that alters which windows the memory
keeps, or in what order it draws its random numbers, fails here.
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
        "35faea9abcfb623080af77dd973e3f45d37d10c7dce1f919e694247df0f13df7",
    ),
    "per-element": (
        "2f34623a26ffe821b905e37ae86224e35898c7f41dcd8256465e50028c7f3f24",
        "9f0d53e2c1cab74cb54d1351fda4ff27f6cb9fc43aac46910a3def81a494cb3b",
    ),
    "per-sample": (
        "0589152eff1d20f3ccef404229f9e8d268f0e62fcfbc4a0f3367c7371625bb65",
        "2c7c30dd4226f72742499c2af5fb89402e4dd0082601db75135c03f35b564dcc",
    ),
}


GENERATED = {
    42: {
        "GH-A.csv": "eb7e51ab4afec37aad434e856d709f57b2b8bb7bdb6e8e63374c71c98a83cc4f",
        "GH-B.csv": "b40165d3f6ed9fe9dd7a81514f4a4bc62eb21c311a0ef2db7ef0f309a1f761e1",
        "GH-C.csv": "fd9472456fa780d37f6f57695b9151598b2b4ee1b2d1fbd43763fd696de95fe3",
    },
    7: {
        "GH-A.csv": "d19ee083f11ad7251856ace0fa95b63a8bbf12b89d5a284ead99ea180b09f923",
        "GH-B.csv": "4457ce650ae814fcc502ba8f94db7db9c8f1e1d08e50caf8defecd15021245e3",
        "GH-C.csv": "f56dc9d0de23f4c56d1c908b356e850f9141a8f2c99dbf101af11327fa80d49e",
    },
}


@pytest.mark.parametrize("seed", sorted(GENERATED))
def test_generated_inputs_match_golden_digest(tmp_path, seed):
    out = tmp_path / "out"
    assert main(["generate", "--preset", "desk", "--seed", str(seed), "--out", str(out)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.glob("GH-*.csv"))
    }
    assert digests == GENERATED[seed]


def int_digest(*arrays) -> str:
    """SHA-256 of the arrays as little-endian int64, so no platform enters."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.asarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_memory_trajectory_matches_golden_digest(tmp_path, strategy):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "memory": {**SPEC["memory"], "strategy": strategy}}), encoding="utf-8")
    args = ["--preset", "desk", "--spec", str(spec), "--out", str(tmp_path / "out")]
    assert main(["generate", *args]) == 0
    assert main(["run", *args, "--dump-memory"]) == 0

    memory_csv, slots = GOLDEN[strategy]
    assert hashlib.sha256((tmp_path / "out" / "memory.csv").read_bytes()).hexdigest() == memory_csv
    with np.load(tmp_path / "out" / "checkpoint.npz", allow_pickle=False) as data:
        assert data["mem_labels"].tolist() == ["GH-A", "GH-B", "GH-C"]
        assert int_digest(data["mem_rows"], data["mem_label_ids"]) == slots
