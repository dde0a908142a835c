"""Check that outputs are a reference's, bit for bit.

    python scripts/same_outputs.py REFERENCE CANDIDATE

Given two directories, each ``*.csv`` and ``manifest.json`` below either
must be below both with the same bytes, and each ``*.npz`` must hold the
same array names in the same order, each array with the same dtype,
shape and bytes (zip timestamps may differ). Given two ``.npz`` files,
just those two are compared. Each difference prints as a GitHub Actions
``::error::`` line; the exit status is 1 if there is any. Of an archive,
only the first differing array is reported, with both dtypes and shapes
and, if the shapes are equal, how many elements' bytes differ.
"""

import sys
from pathlib import Path

import numpy as np


def _differing_elements(a: np.ndarray, b: np.ndarray) -> str:
    """For two arrays of one shape, how many elements differ in their bytes."""
    if a.shape != b.shape:
        return ""
    if a.itemsize != b.itemsize:
        return f", all {a.size} elements' bytes differ"
    a_bytes, b_bytes = (np.ascontiguousarray(x).reshape(-1).view(np.uint8).reshape(x.size, -1)
                        for x in (a, b))
    return f", {np.count_nonzero((a_bytes != b_bytes).any(axis=1))} of {a.size} elements' bytes differ"


def differences(reference: Path, candidate: Path) -> list[str]:
    """One message per way ``candidate`` differs from ``reference``."""
    if not reference.is_dir():
        with np.load(reference) as ref, np.load(candidate) as cand:
            if cand.files != ref.files:
                return [f"{candidate}: array names {cand.files}, not {reference}'s {ref.files}"]
            for key in ref.files:
                a, b = ref[key], cand[key]
                if (a.dtype, a.shape, a.tobytes()) != (b.dtype, b.shape, b.tobytes()):
                    return [f"{candidate}: array {key} differs from {reference}'s: "
                            f"{b.dtype} {b.shape} against {a.dtype} {a.shape}{_differing_elements(a, b)}"]
        return []
    ours, theirs = ({path.relative_to(root) for pattern in ("*.csv", "manifest.json", "*.npz")
                     for path in root.rglob(pattern)} for root in (reference, candidate))
    messages = [f"{name}: only in {reference if name in ours else candidate}" for name in sorted(ours ^ theirs)]
    for name in sorted(ours & theirs):
        if name.suffix == ".npz":
            messages += differences(reference / name, candidate / name)
        elif (reference / name).read_bytes() != (candidate / name).read_bytes():
            messages.append(f"{candidate / name}: bytes differ from {reference / name}'s")
    return messages


def main(paths: list[str]) -> int:
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    messages = differences(*map(Path, paths))
    for message in messages:
        print(f"::error::{message}")
    return int(bool(messages))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
