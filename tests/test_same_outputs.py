"""scripts/same_outputs.py, the comparer of CI's reference runs, finds each
kind of difference and passes what is only re-zipped."""

import importlib.util
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest


SCRIPT = Path(__file__).parents[1] / "scripts" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def arrays(**changed):
    """The reference checkpoint's arrays, in order, with ``changed`` ones replaced."""
    return {"w": np.arange(6.0).reshape(2, 3), "t": np.array(3), **changed}


def write_run(run, **saved):
    """A run directory with a CSV, a manifest and a checkpoint of ``arrays(**saved)``."""
    run.mkdir(parents=True, exist_ok=True)
    (run / "curve.csv").write_bytes(b"update,mse\n0,0.5\n")
    (run / "manifest.json").write_bytes(b'{"seed": 0}\n')
    np.savez_compressed(run / "checkpoint.npz", **arrays(**saved))


def rezip(path):
    """Rewrite the archive at ``path`` with other zip timestamps and the same members."""
    with zipfile.ZipFile(path) as archive:
        members = [(info, archive.read(info)) for info in archive.infolist()]
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for info, data in members:
            info.date_time = (1999, 12, 31, 23, 59, 58)
            archive.writestr(info, data)


ARRAY_CHANGES = {
    "array-value": lambda path: np.savez_compressed(path, **arrays(w=np.arange(6.0).reshape(2, 3) + [0, 0, 1])),
    "array-dtype": lambda path: np.savez_compressed(path, **arrays(w=np.arange(6.0).reshape(2, 3).view(np.int64))),
    "array-order": lambda path: np.savez_compressed(path, **dict(reversed(arrays().items()))),
}
TREE_CHANGES = {
    "csv-byte": lambda run: (run / "curve.csv").write_bytes(b"update,mse\n0,0.6\n"),
    "manifest-byte": lambda run: (run / "manifest.json").write_bytes(b'{"seed": 1}\n'),
    "missing-csv": lambda run: (run / "curve.csv").unlink(),
    "extra-csv": lambda run: (run / "retention.csv").write_bytes(b"update,mse\n"),
    **{name: lambda run, change=change: change(run / "checkpoint.npz") for name, change in ARRAY_CHANGES.items()},
}


def compare(reference, candidate, capsys):
    """The exit status and the printed lines of the comparer."""
    status = same_outputs.main([str(reference), str(candidate)])
    return status, capsys.readouterr().out.splitlines()


@pytest.fixture
def trees(tmp_path):
    """A reference tree and a copy of it, each with one run under ``run/``."""
    write_run(tmp_path / "reference" / "run")
    shutil.copytree(tmp_path / "reference", tmp_path / "candidate")
    return tmp_path / "reference", tmp_path / "candidate"


@pytest.mark.parametrize("change", TREE_CHANGES.values(), ids=TREE_CHANGES.keys())
def test_each_difference_between_trees_is_one_error(trees, change, capsys):
    reference, candidate = trees
    assert compare(reference, candidate, capsys) == (0, [])
    change(candidate / "run")
    status, lines = compare(reference, candidate, capsys)
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith("::error::")


@pytest.mark.parametrize("change", ARRAY_CHANGES.values(), ids=ARRAY_CHANGES.keys())
def test_each_difference_between_two_archives_is_one_error(trees, change, capsys):
    reference, candidate = (root / "run" / "checkpoint.npz" for root in trees)
    change(candidate)
    status, lines = compare(reference, candidate, capsys)
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith("::error::")


@pytest.mark.parametrize(
    "changed, detail",
    [({"w": np.arange(6.0).reshape(2, 3) + [0, 0, 1]},
      "w differs from {ref}'s: float64 (2, 3) against float64 (2, 3), 2 of 6 elements' bytes differ"),
     ({"w": np.arange(6.0).reshape(3, 2)}, "w differs from {ref}'s: float64 (3, 2) against float64 (2, 3)"),
     ({"w": np.arange(6.0).reshape(2, 3).astype(np.float32)},
      "w differs from {ref}'s: float32 (2, 3) against float64 (2, 3), all 6 elements' bytes differ"),
     ({"w": np.arange(6.0).reshape(2, 3).view(np.int64)},
      "w differs from {ref}'s: int64 (2, 3) against float64 (2, 3), 0 of 6 elements' bytes differ"),
     # only the first differing array is reported
     ({"w": np.zeros((2, 3)), "t": np.array(4)},
      "w differs from {ref}'s: float64 (2, 3) against float64 (2, 3), 5 of 6 elements' bytes differ"),
     ({"t": np.array(4)}, "t differs from {ref}'s: int64 () against int64 (), 1 of 1 elements' bytes differ")],
    ids=["values", "shape", "dtype", "same-bytes", "first-only", "scalar"],
)
def test_a_differing_array_names_its_dtypes_shapes_and_elements(tmp_path, changed, detail, capsys):
    # a layout change or a drift can be read from the message alone
    reference, candidate = tmp_path / "reference.npz", tmp_path / "candidate.npz"
    np.savez_compressed(reference, **arrays())
    np.savez_compressed(candidate, **arrays(**changed))
    assert compare(reference, candidate, capsys) == (
        1, [f"::error::{candidate}: array {detail.format(ref=reference)}"])


@pytest.mark.parametrize("whole_tree", [True, False], ids=["trees", "archives"])
def test_archives_with_other_zip_timestamps_are_the_same(trees, whole_tree, capsys):
    reference, candidate = trees
    archive = candidate / "run" / "checkpoint.npz"
    original = archive.read_bytes()
    rezip(archive)
    assert archive.read_bytes() != original
    if not whole_tree:
        reference, candidate = reference / "run" / "checkpoint.npz", archive
    assert compare(reference, candidate, capsys) == (0, [])
