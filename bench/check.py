"""Output checks: pinned reference values and byte-identical reruns.

Reference check: every CSV a command writes, except the generated climate
inputs, is compared with the copy pinned for the same workload and input
seed. Headers, row counts and every integer or text cell (update indices,
eval indices, phase labels, pass/fail) must match exactly; float cells
must agree within ``RTOL`` relative to the reference.

``RTOL`` admits reassociation drift and rejects a wrong kernel. Adding
each gate's input and recurrent products in the other order moved the
outputs by at most 3.4e-14 relative (desk-pipeline, 96 updates); a
relative error of 1e-7 in the sigmoid moved them by 8.6e-7 (paper-eval)
to 4.5e-5 (desk-pipeline).

Determinism check: two runs of one seed must write byte-identical files;
``.npz`` archives are compared by their arrays, since the zip container
records file times.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def checked_outputs(files: list[Path]) -> list[Path]:
    """The files the reference check covers: CSVs that are not climate inputs."""
    return [p for p in files if p.suffix == ".csv" and not p.name.startswith("GH-")]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> dict[str, dict[str, str]]:
    """Command label -> file name -> pinned CSV text, for one input seed."""
    doc = json.loads(reference_path(workload).read_text(encoding="utf-8"))
    return doc["variants"][str(seed)]


def _cell_problem(actual: str, ref: str) -> str | None:
    try:
        int(ref)
    except ValueError:
        pass
    else:
        return None if actual == ref else f"{actual!r} != {ref!r}"
    try:
        want = float(ref)
    except ValueError:
        return None if actual == ref else f"{actual!r} != {ref!r}"
    try:
        got = float(actual)
    except ValueError:
        return f"{actual!r} is not a number (reference {ref})"
    if not math.isfinite(want) or not math.isfinite(got):
        return None if actual == ref else f"{actual} != {ref}"
    if abs(got - want) <= RTOL * abs(want):
        return None
    rel = abs(got - want) / abs(want) if want else math.inf
    return f"{actual} != {ref} (relative difference {rel:.3g} > {RTOL:g})"


def compare_csv(actual: str, reference: str) -> list[str]:
    """Problems found comparing one CSV's text with its reference; [] if it matches."""
    got = list(csv.reader(io.StringIO(actual)))
    want = list(csv.reader(io.StringIO(reference)))
    if not got or got[0] != want[0]:
        return [f"header {got[0] if got else []} != {want[0]}"]
    if len(got) != len(want):
        return [f"{len(got) - 1} rows, reference has {len(want) - 1}"]
    problems = []
    header = want[0]
    for line_no, (row, ref_row) in enumerate(zip(got[1:], want[1:]), start=2):
        if len(row) != len(ref_row):
            problems.append(f"line {line_no}: {len(row)} cells, reference has {len(ref_row)}")
            continue
        for col, cell, ref in zip(header, row, ref_row):
            problem = _cell_problem(cell, ref)
            if problem:
                problems.append(f"line {line_no}, {col}: {problem}")
    return problems


def check_against_reference(files: list[Path], reference: dict[str, str]) -> dict[str, list[str]]:
    """Per file name, the problems found. Missing and unexpected files count."""
    problems: dict[str, list[str]] = {}
    written = {p.name: p for p in checked_outputs(files)}
    for name in sorted(set(written) | set(reference)):
        if name not in reference:
            problems[name] = ["no reference for this file"]
        elif name not in written:
            problems[name] = ["file was not written"]
        else:
            found = compare_csv(written[name].read_text(encoding="utf-8"), reference[name])
            if found:
                problems[name] = found
    return problems


def content_digest(path: Path) -> str:
    """SHA-256 of a file's bytes, or of an .npz archive's array names and bytes."""
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as data:
            for name in sorted(data.files):
                arr = data[name]
                h.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()
